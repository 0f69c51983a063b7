package main

import (
	"fmt"
	"syscall"
	"time"
)

// The host this benchmark was written on is a two-core VM on shared
// hardware, and what its neighbours take is memory speed: over a few
// minutes a register-only loop keeps its pace to 3 % while a walk that
// misses the core's own cache — and with it every workload here, all of
// them allocation-bound — slows by up to 40 %. No statistic taken inside
// a 10 s run can see that; runs of one commit minutes apart disagreed by
// 10–25 %.
//
// So each timed window is followed by a fixed memory-walk kernel owned by
// the benchmark, and every time-based end-to-end metric is reported at
// the host's nominal memory speed: scaled by the time the kernel took in
// this run ÷ its nominal time. Over ten runs that took the spread of
// ops_per_s from 8–14 % to 3–8 %, and it changes nothing while the host
// is calm. The kernel's time and the unscaled values are printed beside
// the metrics.
//
// The kernel always runs once, straight after a window, on caches the
// workload has just filled: run again at once it finds a quarter of its
// 16 MB in the core's own cache and takes half as long.

const (
	probeBytes = 16 << 20 // four times the core's own cache; beyond that all is shared
	probeSteps = 400_000
	// probeNominal is the kernel's time on the quiet host this was
	// written on. It only fixes the scale: on other hardware every
	// metric shifts by one common factor.
	probeNominal = 8 * time.Millisecond
)

// memProbe is the kernel's memory: mapped outside the Go heap, so it
// neither is scanned by nor changes the pacing of the program's garbage
// collector.
type memProbe struct{ mem []byte }

func newMemProbe() (*memProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map probe memory: %w", err)
	}
	p := &memProbe{mem: mem}
	p.run() // fault every page in before the first timed use
	p.run()
	return p, nil
}

func (p *memProbe) close() {
	_ = syscall.Munmap(p.mem) // process exit unmaps it anyway
}

// run times one pass of the kernel: a read-modify-write and a read at
// pseudo-random places across the mapping per step, independent of each
// other like the misses of real code.
func (p *memProbe) run() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	var sum byte
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 40) % probeBytes
		p.mem[j] += byte(x)
		sum += p.mem[(j*7+4099)%probeBytes]
	}
	p.mem[0] = sum
	return time.Since(t0)
}

// slowdown converts kernel times to the factor by which the host's
// memory is slower than nominal, taking the quiet decile like the
// windows it scales.
func slowdown(probes []time.Duration) float64 {
	ms := durationsMS(probes)
	return quantile(ms, quietDecile) / (float64(probeNominal) / 1e6)
}

package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// secs converts a flag's seconds to a Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// durationsMS converts to milliseconds for quantile.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user+system CPU time so far (getrusage), so
// GC workers and the daemon's apply goroutines count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounts reads the cumulative malloc count and allocated bytes.
func heapCounts() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// measured is the cost of one timed region.
type measured struct {
	elapsed time.Duration
	allocs  uint64
	bytes   uint64
}

// measure runs fn and reports its wall time and heap activity. The
// MemStats reads stop the world, so they sit outside the timed interval.
func measure(fn func()) measured {
	m0, b0 := heapCounts()
	start := time.Now()
	fn()
	el := time.Since(start)
	m1, b1 := heapCounts()
	return measured{elapsed: el, allocs: m1 - m0, bytes: b1 - b0}
}

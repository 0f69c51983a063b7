package main

import (
	"fmt"
	"time"
)

// batchFunc sends the next batchFrames frames down a wire path — decode,
// process, read every delivery — recording one span per step under
// parent. The dataplane workloads process on one switch; ctl_churn
// publishes through the simulated fabric its control plane configured.
type batchFunc func(tr *tracer, parent int32)

// wireWindow runs the closed loop for dur: one caller, the next batch
// sent when the previous one's deliveries have been read. It returns the
// frames sent and the exact time they took; each batch's wall time is
// appended to batchNS.
func wireWindow(dur time.Duration, tr *tracer, batch batchFunc, batchNS *[]int64) (frames int, elapsed time.Duration) {
	start := time.Now()
	last := start
	for {
		sp := tr.begin("wire", -1)
		batch(tr, sp)
		tr.end(sp)
		frames += batchFrames
		now := time.Now()
		*batchNS = append(*batchNS, int64(now.Sub(last)))
		last = now
		if elapsed = now.Sub(start); elapsed >= dur {
			return frames, elapsed
		}
	}
}

// windowsPerRun is how many equal windows the timed phase is cut into.
// Each window yields its own rate, CPU cost and latency percentiles, and
// the run reports the decile of windows the host disturbed least
// (quietDecile): on a shared machine interference only ever takes CPU
// away, so the quiet windows repeat from run to run where the median
// window does not (±1 % against ±5 % on the host this was written on).
// A window still spans several GC cycles.
const (
	windowsPerRun = 40
	quietDecile   = 0.1
)

func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// runWireE2E is the untraced timed phase of a wire path. The time-based
// metrics, the set-up time measured just before among them, are scaled
// to the host's nominal memory speed (hostprobe.go); a note gives the
// scale and the values as timed.
func runWireE2E(seconds float64, batch batchFunc, probe *memProbe, setupS float64, setupN int, o *outcome) (frames int64) {
	res := o.res
	window := secs(seconds / windowsPerRun)
	var rates, cpus, p50s []float64
	var probes []time.Duration
	batchNS := make([]int64, 0, 1<<12)
	mallocs0, bytes0 := heapCounts()
	for w := 0; w < windowsPerRun; w++ {
		batchNS = batchNS[:0]
		cpu0 := cpuTime()
		n, el := wireWindow(window, nil, batch, &batchNS)
		cpu := cpuTime() - cpu0
		frames += int64(n)
		rates = append(rates, float64(n)/el.Seconds())
		cpus = append(cpus, float64(cpu)/1e3/float64(n))
		p50s = append(p50s, quantile(nsToMS(batchNS), 0.5))
		probes = append(probes, probe.run())
	}
	mallocs1, bytes1 := heapCounts()
	slow := slowdown(probes)
	rate := quantile(rates, 1-quietDecile)
	cpu, p50 := quantile(cpus, quietDecile), quantile(p50s, quietDecile)
	batches := int(frames / batchFrames)
	res.set("setup_s", setupS/slow, setupN)
	res.set("ops_per_s", rate*slow, windowsPerRun)
	res.set("cpu_us_per_op", cpu/slow, windowsPerRun)
	res.set("latency_p50_ms", p50/slow, batches)
	res.set("allocs_per_op", float64(mallocs1-mallocs0)/float64(frames), int(frames))
	res.set("alloc_bytes_per_op", float64(bytes1-bytes0)/float64(frames), int(frames))
	o.notes = append(o.notes, fmt.Sprintf(
		"memory probe %.2f ms = %.3fx nominal; as timed: setup_s %.4f ops_per_s %.0f cpu_us_per_op %.4f latency_p50_ms %.4f",
		slow*float64(probeNominal)/1e6, slow, setupS, rate, cpu, p50))
	return frames
}

// runWireTraced runs the wire loop for seconds with and without spans in
// many short alternating windows, so both see the same machine
// conditions, and reports what the trace says about the path.
func runWireTraced(seconds float64, tr *tracer, batch batchFunc, res *results) error {
	const pairs = 20
	window := secs(seconds / (2 * pairs))
	var plain, traced []float64
	var batchNS []int64
	for i := 0; i < pairs; i++ {
		n, el := wireWindow(window, nil, batch, &batchNS)
		plain = append(plain, float64(n)/el.Seconds())
		n, el = wireWindow(window, tr, batch, &batchNS)
		traced = append(traced, float64(n)/el.Seconds())
	}
	res.set("trace.overhead_frac", 1-median(traced)/median(plain), pairs)
	lat := nsToMS(batchNS)
	res.set("e2e.latency_p90_ms", quantile(lat, 0.9), len(lat))
	res.set("e2e.latency_p99_ms", quantile(lat, 0.99), len(lat))

	tot := tr.totals()
	wire := tot["wire"]
	if wire == nil || wire.TotalNS == 0 {
		return fmt.Errorf("trace recorded no wire spans")
	}
	share := func(name string) float64 {
		if tot[name] == nil {
			return 0
		}
		return float64(tot[name].SelfNS) / float64(wire.TotalNS)
	}
	res.set("packet.decode_share", share("decode"), wire.Count)
	res.set("pipeline.process_share", share("process"), wire.Count)
	res.set("trace.consume_share", share("consume"), wire.Count)
	res.set("trace.wire_accounted_frac", share("decode")+share("process")+share("consume"), wire.Count)
	return nil
}

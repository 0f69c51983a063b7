package experiments

import (
	"fmt"
	"time"

	"camus/internal/analysis/fitcheck"
	"camus/internal/baseline"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/stats"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// Fig9 reproduces the INT filtering throughput experiment (§VIII-E2,
// Fig. 9): filtering a 100G stream of telemetry reports with an
// increasing number of filters. The C-userspace and DPDK subscribers are
// CPU-bound (DPDK ≈16 Mpps at the paper's 1.6 GHz / ~100 instructions
// per packet, collapsing past ~10k filters); Camus runs at line rate
// regardless of the filter count because the filters live in hardware
// tables.
func Fig9(cfg Config) *Result {
	res := &Result{
		ID:    "Fig. 9",
		Title: "INT filter throughput vs. number of filters (100G link)",
	}
	counts := []int{1, 10, 100, 1000, 10000, 100000}
	c := baseline.CUserspace()
	d := baseline.DPDK()
	line := baseline.CamusSwitchMpps(100, 84+formats.INTReportBytes)

	tbl := &stats.Table{
		Title:  "throughput (Mpps)",
		Header: []string{"#filters", "C userspace", "DPDK", "Camus (line rate)", "Camus entries", "fits switch"},
	}
	for _, n := range counts {
		// Compile a real filter set of that size to substantiate the
		// "filters in hardware memory" claim with entry counts. Filters
		// follow the paper's pattern: switch_id == S and hop_latency > T.
		compileN := n
		if cfg.Quick && n > 10000 {
			compileN = 10000 // full run compiles all 100k
		}
		prog := compileINTFilters(compileN, cfg.Seed)
		entries := prog.TotalEntries()
		note := fmt.Sprintf("%d", entries)
		if compileN != n {
			note += " (10k compiled)"
		}
		tbl.AddRow(n, c.ThroughputMpps(n), d.ThroughputMpps(n), line, note, fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true}).Fits())
	}
	res.Tables = []*stats.Table{tbl}

	res.addFinding("DPDK ceiling %.1f Mpps at 1 filter (paper: 16 Mpps); Camus %.1f Mpps at every filter count",
		d.ThroughputMpps(1), line)
	r10k, r100k := d.ThroughputMpps(10000), d.ThroughputMpps(100000)
	res.addFinding("DPDK collapses past 10k filters: %.2f → %.2f Mpps (paper: 'drastically increases after 10K filters')", r10k, r100k)

	// Sanity: the compiled filters actually select <1% of a generated
	// stream, as in the paper.
	prog := compileINTFilters(100, cfg.Seed)
	stream := workload.INTStream(workload.INTStreamConfig{
		Reports: cfg.scale(50000, 500000), Seed: cfg.Seed,
	})
	matched := 0
	for _, rep := range stream {
		if !prog.Eval(rep.Message(), nil).IsEmpty() {
			matched++
		}
	}
	res.addFinding("filter selectivity on generated stream: %.3f%% (paper: <1%%)",
		100*float64(matched)/float64(len(stream)))

	// Extra series beyond the paper: this repository's own software
	// pipeline, measured — it behaves like the software baselines
	// (CPU-bound, far below ASIC line rate), which is the paper's point.
	res.addFinding("this repo's software pipeline measures %.2f Mpps at 100 filters (CPU-bound, as Fig. 9 predicts for software)",
		measuredSoftwareMpps(prog, stream[:min(20000, len(stream))]))
	return res
}

var intParser = subscription.NewParser(formats.INT)

// INTFilterProgram compiles n paper-style INT filters (switch_id == S
// and hop_latency > T) — exported for the repository's switch-level
// benchmarks.
func INTFilterProgram(n int, seed int64) *compiler.Program {
	return compileINTFilters(n, seed)
}

// compileINTFilters builds n paper-style INT filters and compiles them.
func compileINTFilters(n int, seed int64) *compiler.Program {
	rules := make([]*subscription.Rule, 0, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("switch_id == %d and hop_latency > %d: fwd(%d)",
			i%100, 100+(i/100)*10, 1+i%8)
		r, err := intParser.ParseRule(src, i)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	p, err := compiler.Compile(formats.INT, rules, compiler.Options{})
	if err != nil {
		panic(err)
	}
	return p
}

// measuredSoftwareMpps measures this repository's own software pipeline
// throughput (extra series beyond the paper, reported in EXPERIMENTS.md).
func measuredSoftwareMpps(prog *compiler.Program, reports []*formats.INTReport) float64 {
	start := time.Now()
	for _, r := range reports {
		prog.Eval(r.Message(), nil)
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(len(reports)) / elapsed.Seconds() / 1e6
}

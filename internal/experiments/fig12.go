package experiments

import (
	"math"
	"strconv"
	"strings"

	"camus/internal/baseline"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/stats"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// Fig12 reproduces the compiler memory-efficiency experiment (§VIII-F2,
// Fig. 12): total table entries for Camus's BDD compiler vs. the naive
// one-big-table baseline, sweeping (a) the number of subscriptions and
// (b) the selectiveness (predicates per filter). Workloads come from the
// Siena-style synthetic generator the paper uses. Camus is reported twice:
// as the paper compiles, one diagram per switch (Options.OneDiagram), and
// as this compiler does by default, rules that test different fields in
// separate parts.
func Fig12(cfg Config) *Result {
	res := &Result{
		ID:    "Fig. 12",
		Title: "Compiler BDD memory efficiency vs. one-big-table baseline",
	}
	const bigCap = 1 << 40

	// (a) Sweep number of subscriptions, 3 predicates per filter.
	subsSweep := []int{50, 100, 200, 400}
	if !cfg.Quick {
		subsSweep = append(subsSweep, 800, 1600, 3200)
	}
	ta := &stats.Table{
		Title:  "(a) table entries vs. #subscriptions (3 predicates each)",
		Header: []string{"#subs", "one-diagram entries", "parts entries", "big-table entries", "ratio"},
	}
	var lastRatio float64
	var subs, camus, parted, bigs []float64
	for _, n := range subsSweep {
		rules, err := workload.SienaRules(workload.SienaConfig{
			Spec: formats.ITCH, Filters: n,
			MinPredicates: 3, MaxPredicates: 3, Seed: cfg.Seed,
		}, 32)
		if err != nil {
			panic(err)
		}
		one, parts := compileBoth(rules)
		big := baseline.BigTableEntries(formats.ITCH, rules, bigCap)
		lastRatio = float64(big) / float64(one)
		ta.AddRow(n, one, parts, big, lastRatio)
		subs = append(subs, float64(n))
		camus = append(camus, float64(one))
		parted = append(parted, float64(parts))
		bigs = append(bigs, float64(big))
	}
	res.addFinding("at %d subscriptions the big table needs %.0f× more entries than Camus",
		subsSweep[len(subsSweep)-1], lastRatio)
	slope := stats.LogLogSlope(subs, camus)
	res.addFinding("growth law over %d–%d subscriptions (log-log least-squares slope): Camus entries ∝ subs^%.2f, big table ∝ subs^%.2f — Camus stays orders of magnitude below the baseline but is super-linear, ×%.1f per doubling",
		subsSweep[0], subsSweep[len(subsSweep)-1], slope, stats.LogLogSlope(subs, bigs), math.Pow(2, slope))
	pslope := stats.LogLogSlope(subs, parted)
	res.addFinding("in parts (rules that test different fields compile as separate diagrams) Camus entries ∝ subs^%.2f, ×%.1f per doubling; at %d subscriptions parts need 1/%.0f of the one diagram's entries",
		pslope, math.Pow(2, pslope), subsSweep[len(subsSweep)-1], camus[len(camus)-1]/parted[len(parted)-1])

	// (b) Sweep predicates per filter at a fixed subscription count.
	nFixed := cfg.scale(300, 1000)
	tb := &stats.Table{
		Title:  "(b) table entries vs. predicates per filter",
		Header: []string{"#predicates", "one-diagram entries", "parts entries", "big-table entries"},
	}
	var counts, partCounts []int
	for _, k := range []int{1, 2, 3, 4} {
		rules, err := workload.SienaRules(workload.SienaConfig{
			Spec: formats.ITCH, Filters: nFixed,
			MinPredicates: k, MaxPredicates: k, Seed: cfg.Seed + int64(k),
		}, 32)
		if err != nil {
			panic(err)
		}
		one, parts := compileBoth(rules)
		counts, partCounts = append(counts, one), append(partCounts, parts)
		tb.AddRow(k, one, parts, baseline.BigTableEntries(formats.ITCH, rules, bigCap))
	}
	res.Tables = []*stats.Table{ta, tb}
	peak := 0
	parts := make([]string, len(counts))
	for i, n := range counts {
		if n > counts[peak] {
			peak = i
		}
		parts[i] = strconv.Itoa(n)
	}
	series := strings.Join(parts, " → ")
	if peak == 0 {
		res.addFinding("more selective subscriptions need fewer entries at every step: %s (1–4 preds) — matches the paper ('more predicates per filter require fewer entries')", series)
	} else {
		res.addFinding("entries are not monotone in predicates per filter: %s (1–4 preds) peaks at %d predicates, %.0f× the 1-predicate count; the paper's 'more predicates per filter require fewer entries' holds only past the peak (4 preds = 1/%.0f of 1 pred)",
			series, peak+1, float64(counts[peak])/float64(counts[0]), float64(counts[0])/float64(counts[len(counts)-1]))
	}
	for i, n := range partCounts {
		parts[i] = strconv.Itoa(n)
	}
	res.addFinding("in parts: %s entries (1–4 preds) — a filter of few predicates no longer multiplies the partitions of filters on other fields",
		strings.Join(parts, " → "))
	return res
}

// compileBoth returns the entries of rules compiled as one diagram and as
// parts.
func compileBoth(rules []*subscription.Rule) (one, parts int) {
	for _, oneDiagram := range []bool{true, false} {
		prog, err := compiler.Compile(formats.ITCH, rules, compiler.Options{OneDiagram: oneDiagram})
		if err != nil {
			panic(err)
		}
		if oneDiagram {
			one = prog.TotalEntries()
		} else {
			parts = prog.TotalEntries()
		}
	}
	return one, parts
}

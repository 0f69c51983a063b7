package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"camus/internal/analysis/fitcheck"
	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/stats"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// newRand returns a deterministic rand for experiment helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// AblationPruning quantifies the domain-specific implication pruning
// (DESIGN.md §5.1): table entries and BDD nodes with and without
// reduction iii, on range-heavy workloads where it matters most.
func AblationPruning(cfg Config) *Result {
	res := &Result{
		ID:    "Ablation A1",
		Title: "Domain-specific implication pruning (BDD reduction iii)",
	}
	tbl := &stats.Table{
		Header: []string{"#filters", "entries (pruned)", "entries (no pruning)", "blowup", "compile (pruned)", "compile (none)"},
	}
	// Sizes stay small: without reduction iii the BDD's subfunction
	// count grows combinatorially on range workloads — which is exactly
	// the finding, and why the sweep stops where it does.
	var worst float64
	for _, n := range []int{15, 30, 60} {
		rules, err := workload.SienaRules(workload.SienaConfig{
			Spec: formats.ITCH, Filters: n,
			MinPredicates: 2, MaxPredicates: 3,
			IntRange: 100, EqualityBias: 0.1, // range-heavy, clustered constants
			Seed: cfg.Seed,
		}, 16)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		pruned, err := compiler.Compile(formats.ITCH, rules, compiler.Options{})
		if err != nil {
			panic(err)
		}
		tPruned := time.Since(t0)
		// The unpruned build is node-capped: without reduction iii it
		// can exceed memory outright, which is itself the result.
		const nodeCap = 300_000
		t0 = time.Now()
		unpruned, err := compiler.Compile(formats.ITCH, rules, compiler.Options{
			BDD: bdd.Options{DisablePruning: true, MaxNodes: nodeCap},
		})
		tUnpruned := time.Since(t0)
		switch {
		case err == nil:
			blowup := float64(unpruned.TotalEntries()) / float64(pruned.TotalEntries())
			if blowup > worst {
				worst = blowup
			}
			tbl.AddRow(n, pruned.TotalEntries(), unpruned.TotalEntries(), blowup,
				tPruned.Round(time.Millisecond), tUnpruned.Round(time.Millisecond))
		case errors.Is(err, bdd.ErrTooLarge):
			worst = float64(nodeCap) / float64(pruned.TotalEntries())
			tbl.AddRow(n, pruned.TotalEntries(), fmt.Sprintf(">%d nodes", nodeCap), "blowup",
				tPruned.Round(time.Millisecond), tUnpruned.Round(time.Millisecond))
		default:
			panic(err)
		}
	}
	res.Tables = []*stats.Table{tbl}
	res.addFinding("without reduction iii, tables grow ≥%.0f× on range-heavy workloads (unpruned builds hit the node cap)", worst)
	return res
}

// AblationFieldOrder compares the BDD field orders (DESIGN.md §5.2) —
// the canonical exact-fields-first order (default), pure declaration
// order and reversed declaration order — on two rule
// shapes: Siena filters of 2–3 predicates on random fields, and
// `stock == S and price > T` rules, ten random thresholds a symbol — the
// shape of every bench/ ITCH workload. Each order compiles twice: in
// parts, the default, whose part decision moves with the order, and as
// the paper's one diagram.
func AblationFieldOrder(cfg Config) *Result {
	res := &Result{
		ID:    "Ablation A2",
		Title: "BDD field-order heuristics",
	}
	tbl := &stats.Table{
		Header: []string{"rule set", "canonical order", "declaration order", "reversed order",
			"canonical, one diagram", "declaration, one diagram", "reversed, one diagram"},
	}
	type ruleSet struct {
		name  string
		rules []*subscription.Rule
	}
	var sets []ruleSet
	for _, n := range []int{100, 300} {
		rules, err := workload.SienaRules(workload.SienaConfig{
			Spec: formats.ITCH, Filters: n,
			MinPredicates: 2, MaxPredicates: 3, Seed: cfg.Seed,
		}, 16)
		if err != nil {
			panic(err)
		}
		sets = append(sets, ruleSet{fmt.Sprintf("siena 2–3 preds × %d", n), rules})
	}
	parser := subscription.NewParser(formats.ITCH)
	rng := newRand(cfg.Seed)
	for _, n := range []int{1000, 3000} {
		syms := workload.DefaultSymbols(n / 10)
		rules := make([]*subscription.Rule, n)
		for i := range rules {
			r, err := parser.ParseRule(fmt.Sprintf("stock == %s and price > %d: fwd(%d)",
				syms[i%len(syms)], 10*rng.Intn(100), i%48), i)
			if err != nil {
				panic(err)
			}
			rules[i] = r
		}
		sets = append(sets, ruleSet{fmt.Sprintf("stock == S and price > T × %d", n), rules})
	}
	// Ratios of each alternative to the canonical order, min and max over
	// the rows, as one diagram: of declaration order, and of the best
	// alternative. In parts, the rows an alternative order beats the
	// canonical one on.
	minDecl, maxDecl, minBest, maxBest := math.Inf(1), 0.0, math.Inf(1), 0.0
	var lost []string
	for _, set := range sets {
		row := []interface{}{set.name}
		var entries []float64
		for _, one := range []bool{false, true} {
			for _, ord := range []bdd.FieldOrder{bdd.CanonicalOrder, bdd.SpecOrder, bdd.ReverseSpecOrder} {
				prog, err := compiler.Compile(formats.ITCH, set.rules, compiler.Options{
					BDD: bdd.Options{Order: ord}, OneDiagram: one,
				})
				if err != nil {
					panic(err)
				}
				row = append(row, prog.TotalEntries())
				entries = append(entries, float64(prog.TotalEntries()))
			}
		}
		tbl.AddRow(row...)
		if best := min(entries[1], entries[2]); best < entries[0] {
			lost = append(lost, fmt.Sprintf("%s (%.0f against %.0f)", set.name, best, entries[0]))
		}
		decl, best := entries[4]/entries[3], min(entries[4], entries[5])/entries[3]
		minDecl, maxDecl = min(minDecl, decl), max(maxDecl, decl)
		minBest, maxBest = min(minBest, best), max(maxBest, best)
	}
	res.Tables = []*stats.Table{tbl}
	res.addFinding("as one diagram, declaration order needs ×%.1f–%.1f the entries of the canonical exact-fields-first order, the better of the two alternatives on each row ×%.1f–%.1f (paper §V-C: 'simple heuristics often work well in practice'; the exact optimum is NP-hard)",
		minDecl, maxDecl, minBest, maxBest)
	if len(lost) == 0 {
		res.addFinding("in parts the canonical order is also the smallest on every row")
	} else {
		res.addFinding("in parts the part decision moves with the order, and another order beats the canonical one on %d of %d rows: %s",
			len(lost), len(sets), strings.Join(lost, "; "))
	}
	return res
}

// AblationExactMatch quantifies the §V-E TCAM optimizations: exact-match
// extraction and low-resolution domain compression.
func AblationExactMatch(cfg Config) *Result {
	res := &Result{
		ID:    "Ablation A3",
		Title: "§V-E resource optimizations: exact-match extraction + domain compression",
	}
	rules, err := workload.SienaRules(workload.SienaConfig{
		Spec: formats.ITCH, Filters: cfg.scale(200, 1000),
		MinPredicates: 2, MaxPredicates: 3, Seed: cfg.Seed,
	}, 16)
	if err != nil {
		panic(err)
	}
	tbl := &stats.Table{
		Header: []string{"configuration", "SRAM bytes", "TCAM bytes", "entries"},
	}
	configs := []struct {
		name string
		opts compiler.Options
	}{
		{"all optimizations", compiler.Options{}},
		{"no domain compression", compiler.Options{DisableCompression: true}},
		{"no exact extraction", compiler.Options{DisableExactOpt: true, DisableCompression: true}},
	}
	var tcamFull, tcamNone int
	for i, c := range configs {
		prog, err := compiler.Compile(formats.ITCH, rules, c.opts)
		if err != nil {
			panic(err)
		}
		l := fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true})
		tbl.AddRow(c.name, l.SRAMBytes(), l.TCAMBytes(), l.Entries())
		if i == 0 {
			tcamFull = l.TCAMBytes()
		}
		if i == len(configs)-1 {
			tcamNone = l.TCAMBytes()
		}
	}
	res.Tables = []*stats.Table{tbl}
	if tcamFull > 0 {
		res.addFinding("disabling both optimizations costs %.1f× the TCAM", float64(tcamNone)/float64(tcamFull))
	} else {
		res.addFinding("with all optimizations this workload needs no TCAM at all; without them it needs %d bytes", tcamNone)
	}
	return res
}

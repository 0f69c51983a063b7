package netcheck_test

import (
	"fmt"
	"math/rand"
	"testing"

	"camus/internal/analysis/netcheck"
	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

var itchSpec = spec.MustParse("itch", `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`)

func filter(t testing.TB, src string) subscription.Expr {
	t.Helper()
	e, err := subscription.NewParser(itchSpec).ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	return e
}

// proveAll converts a deployment's compiled programs to the prover IR.
func proveAll(t testing.TB, progs []*compiler.Program) []*prove.Program {
	t.Helper()
	out := make([]*prove.Program, len(progs))
	for i, p := range progs {
		if p == nil {
			continue
		}
		ir, err := p.ProveIR()
		if err != nil {
			t.Fatalf("ProveIR(%d): %v", i, err)
		}
		out[i] = ir
	}
	return out
}

// fatTreeSubs is a representative mixed workload: exact-match, range,
// disjunction, and a stateful aggregate filter.
func fatTreeSubs(t testing.TB, net *topology.Network) ([][]subscription.Expr, []netcheck.Subscription) {
	t.Helper()
	raw := map[int][]string{
		2:  {"stock == GOOGL"},
		5:  {"stock == GOOGL and price > 500"},
		9:  {"stock == MSFT or stock == AAPL"},
		14: {"price > 900 and shares > 500"},
		7:  {"avg(price, 100ms) > 250 and stock == FB"},
	}
	subs := make([][]subscription.Expr, len(net.Hosts))
	var flat []netcheck.Subscription
	id := 0
	for h := 0; h < len(net.Hosts); h++ {
		for _, src := range raw[h] {
			e := filter(t, src)
			subs[h] = append(subs[h], e)
			flat = append(flat, netcheck.Subscription{ID: id, Host: h, Expr: e})
			id++
		}
	}
	return subs, flat
}

func checkFatTreeDeployment(t *testing.T, opts controller.Options) *netcheck.Result {
	t.Helper()
	net := topology.MustFatTree(4)
	subs, flat := fatTreeSubs(t, net)
	d, err := controller.Deploy(net, itchSpec, subs, opts)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	res, err := netcheck.CheckFatTree(net, itchSpec, proveAll(t, d.Programs), flat, netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckFatTree: %v", err)
	}
	return res
}

// TestFatTreeClean certifies the paper's end-to-end claim for the real
// controller pipeline: Algorithm-1 placement plus compiled programs
// deliver exactly, loop-free, under both policies and α settings.
func TestFatTreeClean(t *testing.T) {
	for _, policy := range []routing.Policy{routing.MemoryReduction, routing.TrafficReduction} {
		for _, alpha := range []int64{0, 10} {
			t.Run(fmt.Sprintf("policy=%v/alpha=%d", policy, alpha), func(t *testing.T) {
				res := checkFatTreeDeployment(t, controller.Options{
					Routing: routing.Options{Policy: policy, Alpha: alpha},
				})
				if !res.Ok() {
					for _, f := range res.Findings {
						t.Errorf("finding: %s: %s", f.Kind, f.Message)
					}
				}
				if res.Classes == 0 {
					t.Fatal("no classes propagated")
				}
			})
		}
	}
}

// buildTree computes and compiles an MST++ deployment over a random
// AS-like graph, returning the tree, the ground truth and the per-node
// prover IR.
func buildTree(t testing.TB, g *topology.Graph, subs map[int][]subscription.Expr, alpha int64) (*topology.Tree, []netcheck.Subscription, []*prove.Program) {
	t.Helper()
	mst, err := topology.PrimMST(g, 0, topology.DegreeProductWeight(g))
	if err != nil {
		t.Fatalf("PrimMST: %v", err)
	}
	res, err := routing.ComputeTree(mst, subs, alpha)
	if err != nil {
		t.Fatalf("ComputeTree: %v", err)
	}
	return mst, netcheck.Subscriptions(res), compileTree(t, itchSpec, res)
}

// compileTree compiles every node of a spanning-tree routing result and
// exports its prover IR.
func compileTree(t testing.TB, sp *spec.Spec, res *routing.Result) []*prove.Program {
	t.Helper()
	progs := make([]*prove.Program, len(res.FIBs))
	for v := range res.FIBs {
		prog, err := compiler.Compile(sp, res.RulesForSwitch(v), compiler.Options{})
		if err != nil {
			t.Fatalf("Compile(node %d): %v", v, err)
		}
		if progs[v], err = prog.ProveIR(); err != nil {
			t.Fatalf("ProveIR(node %d): %v", v, err)
		}
	}
	return progs
}

// TestTreeClean certifies §IV-E routing end-to-end on random general
// topologies, with and without α overshoot.
func TestTreeClean(t *testing.T) {
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	for _, alpha := range []int64{0, 100} {
		t.Run(fmt.Sprintf("alpha=%d", alpha), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				g := workload.ASGraph(workload.ASGraphConfig{Nodes: 30, Edges: 55, Seed: seed})
				r := rand.New(rand.NewSource(seed))
				subs := make(map[int][]subscription.Expr)
				for i := 0; i < 5; i++ {
					node := r.Intn(g.N)
					subs[node] = append(subs[node], filter(t, fmt.Sprintf(
						"stock == %s and price > %d", stocks[r.Intn(len(stocks))], 100+r.Intn(800))))
				}
				mst, truth, progs := buildTree(t, g, subs, alpha)
				res, err := netcheck.CheckTree(mst, itchSpec, progs, truth, netcheck.Options{Alpha: alpha})
				if err != nil {
					t.Fatalf("seed %d: CheckTree: %v", seed, err)
				}
				if !res.Ok() {
					for _, f := range res.Findings {
						t.Errorf("seed %d: finding: %s: %s", seed, f.Kind, f.Message)
					}
				}
			}
		})
	}
}

// TestFatTreeBlackHoleSeeded knocks one host-facing port entry out of a
// compiled deployment and demands netcheck report the black hole with a
// concrete witness.
func TestFatTreeBlackHoleSeeded(t *testing.T) {
	net := topology.MustFatTree(4)
	subs, flat := fatTreeSubs(t, net)
	d, err := controller.Deploy(net, itchSpec, subs, controller.Options{})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	progs := proveAll(t, d.Programs)
	// Victim: host 2's access switch loses its program entirely — the
	// strongest mis-dropped-entry mutation.
	tor, _ := net.Access(2)
	progs[tor] = nil
	res, err := netcheck.CheckFatTree(net, itchSpec, progs, flat, netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckFatTree: %v", err)
	}
	var hit bool
	for _, f := range res.Findings {
		if f.Kind == netcheck.KindBlackHole && f.Host == 2 {
			hit = true
			if f.Cex == nil {
				t.Fatal("black-hole finding has no counterexample")
			}
		}
	}
	if !hit {
		t.Fatalf("no black-hole finding for host 2; findings: %+v", res.Findings)
	}
}

// TestTreeLoopSeeded hands CheckTree a "tree" that is a triangle, every
// node flooding both of its ports, and demands a loop finding.
func TestTreeLoopSeeded(t *testing.T) {
	g := topology.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	// Each node's parent is its predecessor round the cycle, so node v's
	// ports lead to (v+1)%3 and (v+2)%3 — no spanning tree, a ring.
	ring := &topology.Tree{Graph: g, Root: 0, Parent: []int{2, 0, 1}, Kids: [][]int{{1}, {2}, {0}}}
	progs := make([]*prove.Program, 3)
	for v := 0; v < 3; v++ {
		var rules []*subscription.Rule
		for p := range ring.TreeNeighbors(v) {
			rules = append(rules, &subscription.Rule{
				ID: p, Filter: filter(t, "stock == GOOGL"), Action: subscription.FwdAction(p),
			})
		}
		prog, err := compiler.Compile(itchSpec, rules, compiler.Options{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		progs[v], err = prog.ProveIR()
		if err != nil {
			t.Fatalf("ProveIR: %v", err)
		}
	}
	truth := []netcheck.Subscription{{ID: 0, Host: 2, Expr: filter(t, "stock == GOOGL")}}
	res, err := netcheck.CheckTree(ring, itchSpec, progs, truth, netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	var loop, dup bool
	for _, f := range res.Findings {
		switch f.Kind {
		case netcheck.KindLoop:
			loop = true
		case netcheck.KindDuplicate:
			dup = true // the circulating copy re-arrives at its subscriber
		}
	}
	if !loop {
		t.Fatalf("no loop finding; findings: %+v", res.Findings)
	}
	if !dup {
		t.Fatalf("no duplicate-delivery finding; findings: %+v", res.Findings)
	}
}

// TestReportEnvelope checks the unified report rendering.
func TestReportEnvelope(t *testing.T) {
	r := &netcheck.Result{Findings: []netcheck.Finding{{
		Kind: netcheck.KindBlackHole, FilterID: 3, Host: 2, Ingress: 0,
		Message: "black hole",
		Cex:     &prove.Assignment{Headers: map[string]bool{"itch_order": true}},
	}}}
	rep := r.Report("itch.rules")
	if len(rep.Findings) != 1 || !rep.HasErrors() {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Findings[0].Counterexample == nil {
		t.Fatal("missing counterexample")
	}
}

// TestBudgetOverflow trips each exploration budget at 1 in both modes:
// the run must say it overflowed, with an analysis-overflow finding, and
// report no black hole — a cut exploration does not show that a delivery
// is absent, and both deployments certify clean at the defaults.
func TestBudgetOverflow(t *testing.T) {
	net := topology.MustFatTree(4)
	subs, flat := fatTreeSubs(t, net)
	d, err := controller.Deploy(net, itchSpec, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	fatProgs := proveAll(t, d.Programs)

	g := workload.ASGraph(workload.ASGraphConfig{Nodes: 30, Edges: 55, Seed: 0})
	treeSubs := map[int][]subscription.Expr{
		3:  {filter(t, "stock == GOOGL and price > 500")},
		11: {filter(t, "stock == MSFT")},
		17: {filter(t, "stock == GOOGL")},
		24: {filter(t, "price > 900 and shares > 500")},
	}
	mst, treeTruth, treeProgs := buildTree(t, g, treeSubs, 0)

	modes := []struct {
		name  string
		check func(netcheck.Options) (*netcheck.Result, error)
	}{
		{"fattree", func(o netcheck.Options) (*netcheck.Result, error) {
			return netcheck.CheckFatTree(net, itchSpec, fatProgs, flat, o)
		}},
		{"tree", func(o netcheck.Options) (*netcheck.Result, error) {
			return netcheck.CheckTree(mst, itchSpec, treeProgs, treeTruth, o)
		}},
	}
	budgets := []struct {
		name string
		opts netcheck.Options
	}{
		{"MaxPaths", netcheck.Options{MaxPaths: 1}},
		{"MaxClasses", netcheck.Options{MaxClasses: 1}},
		{"MaxContexts", netcheck.Options{MaxContexts: 1}},
		{"MaxHops", netcheck.Options{MaxHops: 1}},
	}
	for _, mode := range modes {
		if res, err := mode.check(netcheck.Options{}); err != nil || !res.Ok() {
			t.Fatalf("%s at the default budgets: err %v, result %+v", mode.name, err, res)
		}
		for _, b := range budgets {
			t.Run(mode.name+"/"+b.name, func(t *testing.T) {
				res, err := mode.check(b.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Overflowed {
					t.Error("Overflowed not set")
				}
				overflows := 0
				for _, f := range res.Findings {
					switch f.Kind {
					case netcheck.KindOverflow:
						overflows++
					case netcheck.KindBlackHole:
						t.Errorf("black hole from a cut exploration: %s", f.Message)
					}
				}
				if overflows == 0 {
					t.Error("no analysis-overflow finding")
				}
			})
		}
	}
}

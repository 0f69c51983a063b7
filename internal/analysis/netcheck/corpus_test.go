package netcheck_test

import (
	"slices"
	"testing"

	"camus/internal/analysis/corrupt"
	"camus/internal/analysis/netcheck"
	"camus/internal/analysis/prove"
	"camus/internal/analysis/replay"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

var corpusSpec = spec.MustParse("itch", `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`)

func corpusFilter(t testing.TB, src string) subscription.Expr {
	t.Helper()
	e, err := subscription.NewParser(corpusSpec).ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	return e
}

// corpusDeploy computes routing, applies the network mutations, and
// compiles every switch exactly like the controller does.
func corpusDeploy(t testing.TB, net *topology.Network, subs [][]subscription.Expr,
	ropts routing.Options, muts []corrupt.NetMutation) (*controller.Deployment, []*prove.Program) {
	t.Helper()
	res, err := routing.ComputeFatTree(net, subs, ropts)
	if err != nil {
		t.Fatalf("ComputeFatTree: %v", err)
	}
	return corpusCompile(t, net, res, muts)
}

// corpusCompile corrupts a routing result with the mutations, compiles it
// (controller.Compile) and exports every switch's prover IR.
func corpusCompile(t testing.TB, net *topology.Network, res *routing.Result, muts []corrupt.NetMutation) (*controller.Deployment, []*prove.Program) {
	t.Helper()
	for i, m := range muts {
		if err := m.Apply(res); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	d, err := controller.Compile(corpusSpec, net, res, compiler.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	irs := make([]*prove.Program, len(d.Programs))
	for i, prog := range d.Programs {
		if irs[i], err = prog.ProveIR(); err != nil {
			t.Fatalf("ProveIR(%s): %v", net.Switches[i].Name, err)
		}
	}
	return d, irs
}

// TestSeededCorpus is the known-bad placement/routing corpus: every
// seeded controller defect must be reported with the golden finding
// kind, and every stateless counterexample must reproduce on the
// simulated dataplane.
func TestSeededCorpus(t *testing.T) {
	net := topology.MustFatTree(4)
	baseSubs := func() [][]subscription.Expr {
		subs := make([][]subscription.Expr, len(net.Hosts))
		subs[2] = []subscription.Expr{corpusFilter(t, "stock == GOOGL")}
		subs[5] = []subscription.Expr{corpusFilter(t, "price > 500")}
		subs[9] = []subscription.Expr{corpusFilter(t, "stock == MSFT or stock == AAPL")}
		return subs
	}
	groundTruth := func(subs [][]subscription.Expr) []netcheck.Subscription {
		var out []netcheck.Subscription
		id := 0
		for h, exprs := range subs {
			for _, e := range exprs {
				out = append(out, netcheck.Subscription{ID: id, Host: h, Expr: e})
				id++
			}
		}
		return out
	}

	tor2, port2 := net.Access(2)
	cases := []struct {
		name  string
		ropts routing.Options
		muts  []corrupt.NetMutation
		// stale drops this filter ID from the ground truth while the
		// tables keep it installed (refcount leak).
		stale int
		want  string // golden finding kind
	}{
		{
			name: "mis-dropped-port-entry",
			muts: []corrupt.NetMutation{{
				Op: "drop-port-entry", Switch: tor2, Port: port2, FilterID: 0,
			}},
			stale: -1,
			want:  netcheck.KindBlackHole,
		},
		{
			name: "redirected-port-entry",
			muts: []corrupt.NetMutation{{
				// Host 2's filter delivered to host 3's port instead.
				Op: "redirect-port", Switch: tor2, Port: port2, FilterID: 0, ToPort: port2 + 1,
			}},
			stale: -1,
			want:  netcheck.KindBlackHole,
		},
		{
			name:  "stale-refcount-filter",
			muts:  nil,
			stale: 1, // host 5 unsubscribed "price > 500"; tables keep it
			want:  netcheck.KindSpurious,
		},
		{
			name:  "wrong-alpha-cut",
			ropts: routing.Options{Alpha: 100},
			muts: []corrupt.NetMutation{{
				// The transit approximation of "price > 500" narrows to
				// "price > 600": packets with 500 < price ≤ 600 starve.
				Op: "narrow-approx", FilterID: 1, Expr: corpusFilter(t, "price > 600"),
			}},
			stale: -1,
			want:  netcheck.KindBlackHole,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			subs := baseSubs()
			d, irs := corpusDeploy(t, net, subs, tc.ropts, tc.muts)
			truth := groundTruth(subs)
			if tc.stale >= 0 {
				kept := truth[:0:0]
				for _, s := range truth {
					if s.ID != tc.stale {
						kept = append(kept, s)
					}
				}
				truth = kept
			}
			res, err := netcheck.CheckFatTree(net, corpusSpec, irs, truth, netcheck.Options{})
			if err != nil {
				t.Fatalf("CheckFatTree: %v", err)
			}
			var hit *netcheck.Finding
			for i := range res.Findings {
				if res.Findings[i].Kind == tc.want {
					hit = &res.Findings[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %s finding; findings: %+v", tc.want, res.Findings)
			}
			if hit.Cex == nil {
				t.Fatal("finding has no counterexample")
			}
			if !hit.Cex.Stateless() {
				t.Fatalf("witness needs register state %v; expected a cold-replayable packet", hit.Cex.State)
			}
			// Replay: the witness must reproduce the violation on the
			// simulated dataplane. Publish from the finding's ingress.
			out, err := replay.ConfirmNet(d, truth, hit.Cex, hit.Ingress, 0)
			if err != nil {
				t.Fatalf("ConfirmNet: %v", err)
			}
			if !out.Confirmed {
				t.Fatalf("witness did not reproduce on the dataplane: want %v, runs %v", out.Want, out.Runs)
			}
		})
	}
}

// TestTreeCorpusSeeded seeds a mis-dropped port entry on a general
// topology: the path 0—1—2 loses filter 0 on node 0's transit port, so
// traffic published at 0 never reaches the subscriber at 2.
func TestTreeCorpusSeeded(t *testing.T) {
	g := topology.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	mst, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[int][]subscription.Expr{2: {corpusFilter(t, "stock == GOOGL")}}
	tr, err := routing.ComputeTree(mst, subs, 0)
	if err != nil {
		t.Fatal(err)
	}
	port := slices.Index(mst.TreeNeighbors(0), 1)
	mut := corrupt.NetMutation{Op: "drop-port-entry", Switch: 0, Port: port, FilterID: 0}
	if err := mut.Apply(tr); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := netcheck.CheckTree(mst, corpusSpec, compileTree(t, corpusSpec, tr), netcheck.Subscriptions(tr), netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	var hit bool
	for _, f := range res.Findings {
		if f.Kind == netcheck.KindBlackHole && f.Host == 2 && f.Cex != nil {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no black-hole finding for node 2; findings: %+v", res.Findings)
	}
}

// TestCorpusCleanBaseline cross-checks the seeder harness: with no
// mutation and an honest ground truth, the same pipeline certifies
// clean and replay agrees everywhere.
func TestCorpusCleanBaseline(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[2] = []subscription.Expr{corpusFilter(t, "stock == GOOGL")}
	subs[5] = []subscription.Expr{corpusFilter(t, "price > 500")}
	d, irs := corpusDeploy(t, net, subs, routing.Options{}, nil)
	truth := []netcheck.Subscription{
		{ID: 0, Host: 2, Expr: subs[2][0]},
		{ID: 1, Host: 5, Expr: subs[5][0]},
	}
	res, err := netcheck.CheckFatTree(net, corpusSpec, irs, truth, netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckFatTree: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("clean deployment flagged: %+v", res.Findings)
	}
	// A packet matching filter 0 must replay cleanly too.
	m, err := prove.NewMatcher(truth[0].Expr, true)
	if err != nil {
		t.Fatal(err)
	}
	cls := m.RefineTrue(prove.NewClass())
	if len(cls) == 0 {
		t.Fatal("unsatisfiable filter")
	}
	cex, ok := cls[0].Concretize(corpusSpec, "")
	if !ok {
		t.Fatal("concretize failed")
	}
	out, err := replay.ConfirmNet(d, truth, cex, 0, 0)
	if err != nil {
		t.Fatalf("ConfirmNet: %v", err)
	}
	if out.Confirmed {
		t.Fatalf("clean deployment diverged on replay: want %v, runs %v", out.Want, out.Runs)
	}
}

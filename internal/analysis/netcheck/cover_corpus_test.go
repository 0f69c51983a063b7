package netcheck_test

import (
	"testing"

	"camus/internal/analysis/corrupt"
	"camus/internal/analysis/netcheck"
	"camus/internal/analysis/prove"
	"camus/internal/analysis/replay"
	"camus/internal/controller"
	"camus/internal/routing"
	"camus/internal/routing/cover"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// coverDeploy is corpusDeploy with the covering reduction applied
// between routing and compilation: the subsumption forest's batch
// equivalent (cover.Reduce) elides every port entry implied by a
// broader filter on the same port, then the mutations corrupt the
// *reduced* tables — the state a buggy uncover/promote pass would leave
// behind. (cover stays out of netcheck's non-test dependencies; this
// external package only builds fixtures with it.)
func coverDeploy(t testing.TB, net *topology.Network, subs [][]subscription.Expr,
	ropts routing.Options, muts []corrupt.NetMutation) (*controller.Deployment, []*prove.Program, cover.ReduceStats) {
	t.Helper()
	res, err := routing.ComputeFatTree(net, subs, ropts)
	if err != nil {
		t.Fatalf("ComputeFatTree: %v", err)
	}
	st := cover.Reduce(cover.NewImplier(corpusSpec, 0), res)
	d, irs := corpusCompile(t, net, res, muts)
	return d, irs, st
}

// TestCoveringSeededCorpus is the known-bad corpus for the covering
// machinery: each seeded defect of the uncover/promote pass — a lost
// promotion, a stale parent entry, an over-widened root — must be
// reported by netcheck with the golden finding kind and a
// cold-replayable counterexample that reproduces on the simulated
// dataplane built from the corrupted covering tables.
func TestCoveringSeededCorpus(t *testing.T) {
	net := topology.MustFatTree(4)
	broad := "stock == GOOGL"
	narrow := "stock == GOOGL and price > 500"

	tor2, port2 := net.Access(2)
	cases := []struct {
		name string
		subs func() [][]subscription.Expr
		// truth maps host → subscribed filter sources (the ground truth
		// handed to the checker, independent of what the tables hold).
		muts []corrupt.NetMutation
		want string
	}{
		{
			// Host 2 holds broad ⊒ narrow; the reduction leaves only the
			// broad root installed. Losing that root network-wide without
			// promoting the covered child black-holes both subscriptions.
			name: "dropped-uncover",
			subs: func() [][]subscription.Expr {
				subs := make([][]subscription.Expr, len(net.Hosts))
				subs[2] = []subscription.Expr{corpusFilter(t, broad), corpusFilter(t, narrow)}
				subs[5] = []subscription.Expr{corpusFilter(t, "price > 500")}
				return subs
			},
			muts: []corrupt.NetMutation{{Op: "dropped-uncover", FilterID: 0}},
			want: netcheck.KindBlackHole,
		},
		{
			// Host 2 subscribes only the narrow refinement, but a stale
			// refcount kept the already-unsubscribed broad parent at its
			// access port instead of the promoted child: GOOGL packets
			// with price ≤ 500 arrive spuriously (ingress on the same ToR
			// reaches the corrupted port without transit help).
			name: "stale-cover",
			subs: func() [][]subscription.Expr {
				subs := make([][]subscription.Expr, len(net.Hosts))
				subs[2] = []subscription.Expr{corpusFilter(t, narrow)}
				subs[5] = []subscription.Expr{corpusFilter(t, "price > 500")}
				return subs
			},
			muts: []corrupt.NetMutation{{
				Op: "stale-cover", Switch: tor2, Port: port2, FilterID: 0,
				Filter: &routing.Filter{
					ID: 90, Host: 2,
					Expr:   corpusFilter(t, broad),
					Approx: corpusFilter(t, broad),
				},
			}},
			want: netcheck.KindSpurious,
		},
		{
			// An implication oracle that wrongly widens the installed root
			// to the broad form network-wide over-delivers: the tables
			// forward GOOGL traffic the narrow subscription never asked for.
			name: "over-broad-cover",
			subs: func() [][]subscription.Expr {
				subs := make([][]subscription.Expr, len(net.Hosts))
				subs[2] = []subscription.Expr{corpusFilter(t, narrow)}
				subs[5] = []subscription.Expr{corpusFilter(t, "price > 500")}
				return subs
			},
			muts: []corrupt.NetMutation{{
				Op: "over-broad-cover", FilterID: 0, Expr: corpusFilter(t, broad),
			}},
			want: netcheck.KindSpurious,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			subs := tc.subs()
			var truth []netcheck.Subscription
			id := 0
			for h, exprs := range subs {
				for _, e := range exprs {
					truth = append(truth, netcheck.Subscription{ID: id, Host: h, Expr: e})
					id++
				}
			}
			d, irs, _ := coverDeploy(t, net, subs, routing.Options{}, tc.muts)
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

// TestCoveringCleanBaseline is the certification half: the covering
// reduction must actually elide entries on a covering-heavy
// subscription set, and the reduced fat-tree deployment must pass the
// full network certificate against the complete ground truth — the
// same delivery cuts as the unreduced tables, which
// TestCorpusCleanBaseline certifies with the identical harness.
func TestCoveringCleanBaseline(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[2] = []subscription.Expr{
		corpusFilter(t, "stock == GOOGL"),
		corpusFilter(t, "stock == GOOGL and price > 500"),
		corpusFilter(t, "stock == GOOGL and price > 500 and shares > 100"),
	}
	subs[5] = []subscription.Expr{
		corpusFilter(t, "price > 500"),
		corpusFilter(t, "price > 800"),
	}
	subs[9] = []subscription.Expr{corpusFilter(t, "stock == MSFT or stock == AAPL")}
	var truth []netcheck.Subscription
	id := 0
	for h, exprs := range subs {
		for _, e := range exprs {
			truth = append(truth, netcheck.Subscription{ID: id, Host: h, Expr: e})
			id++
		}
	}
	_, irs, st := coverDeploy(t, net, subs, routing.Options{}, nil)
	if st.Removed() == 0 {
		t.Fatalf("covering reduction elided nothing: %+v", st)
	}
	res, err := netcheck.CheckFatTree(net, corpusSpec, irs, truth, netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckFatTree: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("covering-reduced deployment flagged: %+v", res.Findings)
	}
	t.Logf("covering clean baseline: %d → %d entries certified", st.Before, st.After)
}

// TestCoveringTreeCorpus runs the same certification and the
// dropped-uncover defect on a general topology: the path 0—1—2 with a
// nested pair at node 2 reduces to the broad root alone, certifies
// clean, and loses delivery entirely when the root vanishes without
// promotion.
func TestCoveringTreeCorpus(t *testing.T) {
	g := topology.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	mst, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[int][]subscription.Expr{2: {
		corpusFilter(t, "stock == GOOGL"),
		corpusFilter(t, "stock == GOOGL and price > 500"),
	}}
	build := func(muts []corrupt.NetMutation) (*routing.Result, []*prove.Program, cover.ReduceStats) {
		tr, err := routing.ComputeTree(mst, subs, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := cover.Reduce(cover.NewImplier(corpusSpec, 0), tr)
		for i, m := range muts {
			if err := m.Apply(tr); err != nil {
				t.Fatalf("mutation %d: %v", i, err)
			}
		}
		return tr, compileTree(t, corpusSpec, tr), st
	}

	tr, progs, st := build(nil)
	if st.Removed() == 0 {
		t.Fatalf("tree covering reduction elided nothing: %+v", st)
	}
	res, err := netcheck.CheckTree(mst, corpusSpec, progs, netcheck.Subscriptions(tr), netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("clean reduced tree flagged: %+v", res.Findings)
	}

	tr, progs, _ = build([]corrupt.NetMutation{{Op: "dropped-uncover", FilterID: 0}})
	res, err = netcheck.CheckTree(mst, corpusSpec, progs, netcheck.Subscriptions(tr), netcheck.Options{})
	if err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	hit := false
	for _, f := range res.Findings {
		if f.Kind == netcheck.KindBlackHole && f.Host == 2 && f.Cex != nil {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no black-hole finding for node 2; findings: %+v", res.Findings)
	}
}

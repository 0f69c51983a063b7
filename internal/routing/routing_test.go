package routing

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

var testSpec = spec.MustParse("itch", `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`)

func filter(t testing.TB, src string) subscription.Expr {
	t.Helper()
	e, err := subscription.NewParser(testSpec).ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	return e
}

func msg(stock string, price int64) *spec.Message {
	m := spec.NewMessage(testSpec)
	m.MustSet("stock", spec.StrVal(stock))
	m.MustSet("price", spec.IntVal(price))
	m.MustSet("shares", spec.IntVal(1))
	return m
}

// hostsReachableDown returns the hosts reachable from switch s through
// port p going only downward — the reference for the completeness/
// soundness conditions of §IV-C.
func hostsReachableDown(net *topology.Network, swID, port int) []int {
	s := net.Switches[swID]
	p := s.Ports[port]
	switch p.Kind {
	case topology.PeerHost:
		return []int{p.PeerHostID}
	case topology.PeerDown:
		var out []int
		child := net.Switches[p.PeerSwitch]
		for _, cp := range child.Ports {
			if cp.Kind == topology.PeerHost || cp.Kind == topology.PeerDown {
				out = append(out, hostsReachableDown(net, child.ID, cp.Index)...)
			}
		}
		return out
	default:
		return nil
	}
}

func subsForTest(t *testing.T, net *topology.Network) [][]subscription.Expr {
	t.Helper()
	subs := make([][]subscription.Expr, len(net.Hosts))
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	for h := range net.Hosts {
		subs[h] = []subscription.Expr{
			filter(t, fmt.Sprintf("stock == %s and price > %d", stocks[h%len(stocks)], (h%7)*10+3)),
		}
		if h%3 == 0 {
			subs[h] = append(subs[h], filter(t, fmt.Sprintf("price < %d", h%5+2)))
		}
	}
	return subs
}

// TestFatTreeCompletenessSoundness checks the §IV-C correctness
// conditions for both policies on the k=4 fat tree:
//   - soundness: at a host port, F matches exactly the host's filters;
//   - completeness: at any downward port, F ⊇ the union of filters of
//     hosts reachable through it.
func TestFatTreeCompletenessSoundness(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := subsForTest(t, net)
	probes := []*spec.Message{
		msg("GOOGL", 5), msg("GOOGL", 50), msg("MSFT", 11),
		msg("AAPL", 0), msg("FB", 99), msg("ZZZ", 1),
	}
	for _, policy := range []Policy{MemoryReduction, TrafficReduction} {
		for _, alpha := range []int64{0, 10} {
			res, err := ComputeFatTree(net, subs, Options{Policy: policy, Alpha: alpha})
			if err != nil {
				t.Fatalf("%v/α=%d: %v", policy, alpha, err)
			}
			for _, s := range net.Switches {
				fib := res.FIBs[s.ID]
				for port, fs := range fib.Ports {
					if port == UpPort {
						continue
					}
					hosts := hostsReachableDown(net, s.ID, port)
					isHostPort := s.HostFacing(port)
					for _, m := range probes {
						// Ground truth: does any reachable host subscribe to m?
						want := false
						for _, h := range hosts {
							for _, e := range subs[h] {
								if subscription.EvalExpr(e, m, nil) {
									want = true
								}
							}
						}
						got := false
						for _, f := range fs {
							e := f.Approx
							if isHostPort {
								e = f.Expr
							}
							if subscription.EvalExpr(e, m, nil) {
								got = true
							}
						}
						if want && !got {
							t.Fatalf("%v/α=%d %s port %d: incomplete for %s", policy, alpha, s.Name, port, m)
						}
						if isHostPort && alpha == 0 && got != want {
							t.Fatalf("%v %s port %d: unsound host port for %s", policy, s.Name, port, m)
						}
					}
				}
			}
		}
	}
}

// TestUpPortPolicies: MR puts the constant-true filter on up ports; TR
// puts exactly the subscriptions not in the local subtree.
func TestUpPortPolicies(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := subsForTest(t, net)

	mr, err := ComputeFatTree(net, subs, Options{Policy: MemoryReduction})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Switches {
		fib := mr.FIBs[s.ID]
		if len(s.UpPorts()) > 0 && !fib.MatchAllUp {
			t.Errorf("MR: %s up port not match-all", s.Name)
		}
		if s.Layer == topology.Core && fib.MatchAllUp {
			t.Errorf("MR: core %s has up filter", s.Name)
		}
	}

	tr, err := ComputeFatTree(net, subs, Options{Policy: TrafficReduction})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range net.LayerSwitches(topology.ToR) {
		fib := tr.FIBs[s.ID]
		if fib.MatchAllUp {
			t.Errorf("TR: %s up port is match-all", s.Name)
		}
		upSet := fib.Ports[UpPort]
		// Local hosts' filters must NOT be in the up set; all remote
		// hosts' filters must be.
		local := make(map[int]bool)
		for _, p := range s.HostPorts() {
			local[p.PeerHostID] = true
		}
		for _, f := range tr.Filters {
			_, inUp := upSet[f.ID]
			if local[f.Host] && inUp {
				t.Errorf("TR: %s up set contains local host %d filter", s.Name, f.Host)
			}
			if !local[f.Host] && !inUp {
				t.Errorf("TR: %s up set missing remote host %d filter", s.Name, f.Host)
			}
		}
	}
}

// TestRulesForSwitch: the generated IR carries fwd(port) actions and
// dedupes identical filters per port.
func TestRulesForSwitch(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range net.Hosts {
		// All hosts subscribe to nearly the same thing modulo constants
		// that α=10 collapses.
		subs[h] = []subscription.Expr{filter(t, fmt.Sprintf("price > %d", 50+h%8))}
	}
	exact, err := ComputeFatTree(net, subs, Options{Policy: TrafficReduction})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ComputeFatTree(net, subs, Options{Policy: TrafficReduction, Alpha: 10})
	if err != nil {
		t.Fatal(err)
	}
	core := net.LayerSwitches(topology.Core)[0]
	exactRules := exact.RulesForSwitch(core.ID)
	approxRules := approx.RulesForSwitch(core.ID)
	if len(approxRules) >= len(exactRules) {
		t.Errorf("α=10 did not aggregate at core: %d vs %d rules", len(approxRules), len(exactRules))
	}
	for _, r := range exactRules {
		if !r.Action.IsFwd() || len(r.Action.Ports) != 1 {
			t.Errorf("bad rule action: %s", r)
		}
	}
	// ToR host ports keep exact constants even under α.
	tor := net.Switches[net.Hosts[3].Switch]
	found := false
	for _, r := range approx.RulesForSwitch(tor.ID) {
		if r.Action.Ports[0] == net.Hosts[3].Port && r.Filter.String() == subs[3][0].String() {
			found = true
		}
	}
	if !found {
		t.Errorf("ToR host port lost exact filter under α")
	}
}

// TestApproximateWidens: the α-rewrite must only widen filters
// (completeness: every original match still matches), and must be
// idempotent on already-discretized constants.
func TestApproximateWidens(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rels := []string{"<", "<=", ">", ">=", "==", "!="}
	for trial := 0; trial < 300; trial++ {
		src := fmt.Sprintf("price %s %d", rels[r.Intn(len(rels))], r.Intn(100))
		if r.Intn(2) == 0 {
			src += fmt.Sprintf(" and shares %s %d", rels[r.Intn(len(rels))], r.Intn(100))
		}
		e := filter(t, src)
		for _, alpha := range []int64{2, 10, 50} {
			a := Approximate(e, alpha)
			for price := int64(0); price < 110; price += 3 {
				for shares := int64(0); shares < 110; shares += 13 {
					m := spec.NewMessage(testSpec)
					m.MustSet("price", spec.IntVal(price))
					m.MustSet("shares", spec.IntVal(shares))
					m.MustSet("stock", spec.StrVal("X"))
					if subscription.EvalExpr(e, m, nil) && !subscription.EvalExpr(a, m, nil) {
						t.Fatalf("α=%d narrowed %q → %q at price=%d shares=%d",
							alpha, e, a, price, shares)
					}
				}
			}
			if again := Approximate(a, alpha); again.String() != a.String() {
				t.Fatalf("α=%d not idempotent: %q → %q", alpha, a, again)
			}
		}
	}
}

func TestApproximatePaperExample(t *testing.T) {
	// §IV-D: with α=10, price > 53 and price > 57 → price > 50;
	// price < 53 and price < 57 → price < 60.
	for _, c := range []int{53, 57} {
		gt := Approximate(filter(t, fmt.Sprintf("price > %d", c)), 10)
		if gt.String() != "itch_order.price > 50" {
			t.Errorf("price > %d → %s, want > 50", c, gt)
		}
		lt := Approximate(filter(t, fmt.Sprintf("price < %d", c)), 10)
		if lt.String() != "itch_order.price < 60" {
			t.Errorf("price < %d → %s, want < 60", c, lt)
		}
	}
	// Equality widens to its α-bucket; nearby constants share a bucket.
	eq53 := Approximate(filter(t, "price == 53"), 10)
	eq57 := Approximate(filter(t, "price == 57"), 10)
	if eq53.String() != "itch_order.price >= 50 and itch_order.price < 60" {
		t.Errorf("price == 53 → %s", eq53)
	}
	if eq53.String() != eq57.String() {
		t.Errorf("bucketed equalities differ: %s vs %s", eq53, eq57)
	}
	// Exact-hint fields (stock symbols are strings, but exact int fields
	// exist too) and != stay untouched.
	ne := Approximate(filter(t, "price != 53"), 10)
	if ne.String() != "itch_order.price != 53" {
		t.Errorf("inequality changed: %s", ne)
	}
}

// TestComputeTreePartition: on a spanning tree, each port's filter set is
// exactly the subscriptions on the far side of the edge.
func TestComputeTreePartition(t *testing.T) {
	g := topology.NewGraph(7)
	// A path 0-1-2-3 with branches 2-4, 1-5, 5-6.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {1, 5}, {5, 6}} {
		g.AddEdge(e[0], e[1])
	}
	tree, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[int][]subscription.Expr{
		3: {filter(t, "stock == GOOGL")},
		4: {filter(t, "price > 10")},
		6: {filter(t, "stock == MSFT")},
	}
	res, err := ComputeTree(tree, subs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Side-of-edge ground truth via graph splitting.
	sideHosts := func(u, v int) map[int]bool {
		// Hosts reachable from v without crossing back to u.
		seen := map[int]bool{v: true}
		stack := []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range tree.TreeNeighbors(x) {
				if nb == u && x == v {
					continue
				}
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		return seen
	}
	for v := 0; v < g.N; v++ {
		fib := res.FIBs[v]
		for port, fs := range fib.Ports {
			peer := tree.TreeNeighbors(v)[port]
			side := sideHosts(v, peer)
			for _, f := range res.Filters {
				_, in := fs[f.ID]
				if side[f.Host] != in {
					t.Errorf("node %d port→%d: filter of host %d in=%v side=%v",
						v, peer, f.Host, in, side[f.Host])
				}
			}
		}
	}
	// Every filter appears on every edge cut exactly once per direction.
	rules := res.RulesForSwitch(1)
	if len(rules) == 0 {
		t.Error("node 1 has no rules")
	}
}

// TestEffectiveExactAtSubscriber: a filter is installed exact on the
// port that hands packets to its subscriber — a fat-tree switch's
// host-facing port, a tree vertex's port toward the subscriber node —
// and α-approximated on every other port.
func TestEffectiveExactAtSubscriber(t *testing.T) {
	check := func(name string, fib *FIB, port int, f *Filter, delivering bool) {
		t.Helper()
		want := f.Approx
		if delivering {
			want = f.Expr
		}
		if got := fib.Effective(port, f); got != want {
			t.Errorf("%s port %d filter %d (host %d): installs %s, want %s", name, port, f.ID, f.Host, got, want)
		}
	}
	net := topology.MustFatTree(4)
	for _, policy := range []Policy{MemoryReduction, TrafficReduction} {
		res, err := ComputeFatTree(net, subsForTest(t, net), Options{Policy: policy, Alpha: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range net.Switches {
			fib := res.FIBs[s.ID]
			for port, fs := range fib.Ports {
				for _, f := range fs {
					check(s.Name, fib, port, f, s.HostFacing(port))
				}
			}
		}
	}

	g := topology.NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}} {
		g.AddEdge(e[0], e[1])
	}
	tree, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[int][]subscription.Expr{
		0: {filter(t, "stock == GOOGL and price > 53")},
		2: {filter(t, "price < 17")},
		4: {filter(t, "stock == MSFT and price > 8")},
	}
	res, err := ComputeTree(tree, subs, 10)
	if err != nil {
		t.Fatal(err)
	}
	for v, fib := range res.FIBs {
		for port, fs := range fib.Ports {
			peer := tree.TreeNeighbors(v)[port]
			for _, f := range fs {
				check(fmt.Sprintf("node %d", v), fib, port, f, f.Host == peer)
			}
		}
	}
}

// TestComputeTreeDeterministic: filter IDs — which order every switch's
// rules, hence its BDD merge, hence its compiled program — follow the
// subscriber node numbers, not the iteration order of the subs map.
func TestComputeTreeDeterministic(t *testing.T) {
	g := topology.NewGraph(10)
	for v := 1; v < g.N; v++ {
		g.AddEdge((v-1)/2, v) // a binary tree
	}
	tree, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	subs := make(map[int][]subscription.Expr)
	for v := 1; v < g.N; v++ {
		subs[v] = []subscription.Expr{
			filter(t, fmt.Sprintf("stock == S%d", v)),
			filter(t, fmt.Sprintf("price > %d", 10*v)),
		}
	}
	render := func() string {
		res, err := ComputeTree(tree, subs, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range res.Filters {
			fmt.Fprintf(&b, "filter %d host %d: %s\n", f.ID, f.Host, f.Expr)
		}
		for v := 0; v < g.N; v++ {
			for _, r := range res.RulesForSwitch(v) {
				fmt.Fprintf(&b, "node %d rule %d: %s\n", v, r.ID, r)
			}
		}
		return b.String()
	}
	want := render()
	for run := 1; run < 20; run++ {
		if got := render(); got != want {
			t.Fatalf("run %d differs from run 0:\n%s\nrun 0:\n%s", run, got, want)
		}
	}
}

func TestComputeTreeErrors(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddEdge(0, 1)
	tree, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeTree(tree, map[int][]subscription.Expr{9: nil}, 0); err == nil {
		t.Error("out-of-range subscriber accepted")
	}
}

func TestComputeFatTreeErrors(t *testing.T) {
	net := topology.MustFatTree(4)
	if _, err := ComputeFatTree(net, nil, Options{}); err == nil {
		t.Error("wrong subscription count accepted")
	}
}

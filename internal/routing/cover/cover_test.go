package cover

import (
	"fmt"
	"slices"
	"testing"

	"camus/internal/routing"
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

func TestImplies(t *testing.T) {
	im := NewImplier(testSpec, 0)
	cases := []struct {
		f, g string
		want bool
	}{
		{"stock == GOOGL and price > 500", "stock == GOOGL", true},
		{"stock == GOOGL", "stock == GOOGL and price > 500", false},
		{"price > 500", "price > 100", true},
		{"price > 100", "price > 500", false},
		{"stock == GOOGL and price > 500 and shares > 10", "stock == GOOGL and price > 100", true},
		{"stock == GOOGL", "stock == MSFT", false},
		{"stock == GOOGL", "stock == GOOGL or stock == MSFT", true},
		{"price > 100 and price < 50", "stock == MSFT", true}, // unsat implies anything
		{"price >= 100", "price > 99", true},                  // equivalent over u32
		{"price > 99", "price >= 100", true},
	}
	for _, c := range cases {
		if got := im.Implies(filter(t, c.f), filter(t, c.g)); got != c.want {
			t.Errorf("Implies(%q, %q) = %v, want %v", c.f, c.g, got, c.want)
		}
		// Memoized answer must agree.
		if got := im.Implies(filter(t, c.f), filter(t, c.g)); got != c.want {
			t.Errorf("memoized Implies(%q, %q) = %v, want %v", c.f, c.g, got, c.want)
		}
	}
	// Trivial fast paths.
	e := filter(t, "price > 7")
	if !im.Implies(e, e) {
		t.Error("Implies(e, e) = false")
	}
	if !im.Implies(e, subscription.True) {
		t.Error("Implies(e, true) = false")
	}
}

func deltaStrings(es []subscription.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

func wantDelta(t *testing.T, d Delta, install, uninstall []string) {
	t.Helper()
	if fmt.Sprint(deltaStrings(d.Install)) != fmt.Sprint(install) ||
		fmt.Sprint(deltaStrings(d.Uninstall)) != fmt.Sprint(uninstall) {
		t.Fatalf("delta = install %v uninstall %v, want install %v uninstall %v",
			deltaStrings(d.Install), deltaStrings(d.Uninstall), install, uninstall)
	}
}

func TestForestCoverAndUncover(t *testing.T) {
	im := NewImplier(testSpec, 0)
	f := NewForest(im)
	broad := filter(t, "stock == GOOGL")
	mid := filter(t, "stock == GOOGL and price > 100")
	narrow := filter(t, "stock == GOOGL and price > 500")

	// Broad first: installed as a root.
	wantDelta(t, f.Add(broad), []string{broad.String()}, nil)
	// Narrow attaches under it: covered, nothing installed.
	wantDelta(t, f.Add(narrow), nil, nil)
	if !f.Covered(narrow) || f.Covered(broad) {
		t.Fatalf("Covered(narrow)=%v Covered(broad)=%v", f.Covered(narrow), f.Covered(broad))
	}
	if f.Size() != 2 || f.Roots() != 1 {
		t.Fatalf("Size=%d Roots=%d, want 2/1", f.Size(), f.Roots())
	}
	// Mid is also covered by broad.
	wantDelta(t, f.Add(mid), nil, nil)

	// Double-retain broad, then one release: refcount only.
	wantDelta(t, f.Add(broad), nil, nil)
	if f.Refs(broad) != 2 {
		t.Fatalf("Refs(broad) = %d, want 2", f.Refs(broad))
	}
	wantDelta(t, f.Remove(broad), nil, nil)

	// Uncovering: removing the root uninstalls it and promotes the
	// children in one delta. mid covers narrow, so only mid installs.
	d := f.Remove(broad)
	wantDelta(t, d, []string{mid.String()}, []string{broad.String()})
	if f.Covered(mid) || !f.Covered(narrow) {
		t.Fatalf("after uncover: Covered(mid)=%v Covered(narrow)=%v", f.Covered(mid), f.Covered(narrow))
	}
	if f.Size() != 2 || f.Roots() != 1 {
		t.Fatalf("after uncover: Size=%d Roots=%d, want 2/1", f.Size(), f.Roots())
	}

	// Removing the last obligations empties the forest.
	wantDelta(t, f.Remove(narrow), nil, nil)
	wantDelta(t, f.Remove(mid), nil, []string{mid.String()})
	if f.Size() != 0 {
		t.Fatalf("Size = %d, want 0", f.Size())
	}

	// Lifetime counters survive the now-empty live set: narrow and mid
	// were each filed under broad (2 covered adds), the uncovering
	// promoted mid (1 promotion), and nothing was ever captured.
	if c := f.Counters(); c.CoveredAdds != 2 || c.Captures != 0 || c.Promotions != 1 {
		t.Fatalf("Counters = %+v, want {CoveredAdds:2 Captures:0 Promotions:1}", c)
	}
}

func TestForestRootCapture(t *testing.T) {
	im := NewImplier(testSpec, 0)
	f := NewForest(im)
	googl := filter(t, "stock == GOOGL and price > 500")
	msft := filter(t, "stock == MSFT and price > 500")
	broad := filter(t, "price > 100")

	// Two unrelated roots.
	wantDelta(t, f.Add(googl), []string{googl.String()}, nil)
	wantDelta(t, f.Add(msft), []string{msft.String()}, nil)
	// A broader filter captures both: one install, two uninstalls.
	d := f.Add(broad)
	if len(d.Install) != 1 || d.Install[0].String() != broad.String() || len(d.Uninstall) != 2 {
		t.Fatalf("capture delta = %+v", d)
	}
	if f.Roots() != 1 || !f.Covered(googl) || !f.Covered(msft) {
		t.Fatalf("Roots=%d Covered(googl)=%v Covered(msft)=%v", f.Roots(), f.Covered(googl), f.Covered(msft))
	}
	// Uncovering the captured root promotes both grandchildren back.
	d = f.Remove(broad)
	if len(d.Uninstall) != 1 || len(d.Install) != 2 {
		t.Fatalf("uncover delta = %+v", d)
	}
	if f.Roots() != 2 {
		t.Fatalf("Roots = %d, want 2", f.Roots())
	}
	if c := f.Counters(); c.Captures != 2 || c.Promotions != 2 {
		t.Fatalf("Counters = %+v, want Captures:2 Promotions:2", c)
	}
}

func TestForestCoveredObligationRemoval(t *testing.T) {
	im := NewImplier(testSpec, 0)
	f := NewForest(im)
	broad := filter(t, "stock == GOOGL")
	mid := filter(t, "stock == GOOGL and price > 100")
	narrow := filter(t, "stock == GOOGL and price > 500")
	f.Add(broad)
	f.Add(narrow) // child of broad
	f.Add(mid)    // child of broad
	// Re-home narrow under mid by removing and re-adding? Not needed:
	// removing mid (a covered obligation) must not touch the table even
	// if narrow had been attached beneath it.
	wantDelta(t, f.Remove(mid), nil, nil)
	if f.Size() != 2 || f.Roots() != 1 || !f.Covered(narrow) {
		t.Fatalf("Size=%d Roots=%d Covered(narrow)=%v", f.Size(), f.Roots(), f.Covered(narrow))
	}
}

func TestForestEquivalentFilters(t *testing.T) {
	im := NewImplier(testSpec, 0)
	f := NewForest(im)
	a := filter(t, "price >= 100")
	b := filter(t, "price > 99")
	wantDelta(t, f.Add(a), []string{a.String()}, nil)
	// Equivalent but textually distinct: covered by a, no new entry.
	wantDelta(t, f.Add(b), nil, nil)
	if !f.Covered(b) {
		t.Fatal("equivalent filter not covered")
	}
	// Removing the root promotes the equivalent twin.
	wantDelta(t, f.Remove(a), []string{b.String()}, []string{a.String()})
}

// TestForestUncoverKeepsFirstAdded: an uncovering promotes orphans in
// add order, so of two equivalent orphans the one added first becomes
// the root — as Add files them when no broader root was ever there —
// whatever their keys' order ("price > 5" sorts before "price >= 6").
func TestForestUncoverKeepsFirstAdded(t *testing.T) {
	for _, order := range [][2]string{{"price >= 6", "price > 5"}, {"price > 5", "price >= 6"}} {
		f := NewForest(NewImplier(testSpec, 0))
		broad := filter(t, "stock == GOOGL")
		first := filter(t, "stock == GOOGL and "+order[0])
		second := filter(t, "stock == GOOGL and "+order[1])
		f.Add(broad)
		wantDelta(t, f.Add(first), nil, nil)
		wantDelta(t, f.Add(second), nil, nil)
		wantDelta(t, f.Remove(broad), []string{first.String()}, []string{broad.String()})
		if f.Covered(first) || !f.Covered(second) {
			t.Errorf("%v: Covered(first)=%v Covered(second)=%v", order, f.Covered(first), f.Covered(second))
		}
	}
}

func buildFatTree(t *testing.T, k int) *topology.Network {
	t.Helper()
	net, err := topology.FatTree(k)
	if err != nil {
		t.Fatalf("FatTree(%d): %v", k, err)
	}
	return net
}

func TestReduceResultPreservesPortUnions(t *testing.T) {
	net := buildFatTree(t, 4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{
		filter(t, "stock == GOOGL"),
		filter(t, "stock == GOOGL and price > 500"),
	}
	subs[1] = []subscription.Expr{filter(t, "price > 100")}
	subs[5] = []subscription.Expr{
		filter(t, "price > 300"),
		filter(t, "price > 500 and shares > 10"),
	}
	res, err := routing.ComputeFatTree(net, subs, routing.Options{Policy: routing.TrafficReduction, Alpha: 100})
	if err != nil {
		t.Fatalf("ComputeFatTree: %v", err)
	}
	// Full-mode distinct entry count for later comparison.
	fullEntries := 0
	for _, sw := range net.Switches {
		fullEntries += len(res.RulesForSwitch(sw.ID))
	}

	im := NewImplier(testSpec, 0)
	st := Reduce(im, res)
	if st.Before != fullEntries {
		t.Fatalf("stats.Before = %d, want full entry count %d", st.Before, fullEntries)
	}
	reduced := 0
	for _, sw := range net.Switches {
		reduced += len(res.RulesForSwitch(sw.ID))
	}
	if st.After != reduced {
		t.Fatalf("stats.After = %d, want reduced entry count %d", st.After, reduced)
	}
	if st.Removed() <= 0 {
		t.Fatalf("expected covering to remove entries, got %+v", st)
	}
	// Host 0's access port must keep the broad GOOGL filter only.
	sw, port := net.Access(0)
	fs := res.FIBs[sw].Ports[port]
	if len(fs) != 1 {
		t.Fatalf("access port keeps %d filters, want 1", len(fs))
	}
	for _, f := range fs {
		if f.Expr.String() != subs[0][0].String() {
			t.Fatalf("access port kept %q, want %q", f.Expr, subs[0][0])
		}
	}
}

func TestReduceTreePreservesDelivery(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	tree, err := topology.PrimMST(g, 0, topology.UnitWeight)
	if err != nil {
		t.Fatalf("PrimMST: %v", err)
	}
	subs := map[int][]subscription.Expr{
		3: {filter(t, "stock == GOOGL"), filter(t, "stock == GOOGL and price > 500")},
		0: {filter(t, "price > 500")},
	}
	tr, err := routing.ComputeTree(tree, subs, 1)
	if err != nil {
		t.Fatalf("ComputeTree: %v", err)
	}
	im := NewImplier(testSpec, 0)
	st := Reduce(im, tr)
	if st.Removed() <= 0 {
		t.Fatalf("expected reduction on nested tree subscriptions, got %+v", st)
	}
	// Transit node 1's port toward 2 carried both GOOGL filters; only
	// the broad one survives.
	port := slices.Index(tree.TreeNeighbors(1), 2)
	if port < 0 {
		t.Fatal("node 1 has no port toward node 2")
	}
	for _, f := range tr.FIBs[1].Ports[port] {
		if f.Expr.String() == subs[3][1].String() {
			t.Fatalf("covered transit filter %q survived", f.Expr)
		}
	}
}

// TestImplierNodeBudget: an implication whose diagram outgrows the node
// budget answers false. A forest over that oracle under-covers — it
// installs a filter a larger budget would elide — and what the port
// forwards does not change.
func TestImplierNodeBudget(t *testing.T) {
	broad := filter(t, "stock == GOOGL")
	narrow := filter(t, "stock == GOOGL and price > 500")
	for _, c := range []struct {
		maxNodes int
		want     bool
	}{{8, false}, {16, true}, {0, true}} {
		if got := NewImplier(testSpec, c.maxNodes).Implies(narrow, broad); got != c.want {
			t.Errorf("maxNodes %d: Implies(narrow, broad) = %v, want %v", c.maxNodes, got, c.want)
		}
	}

	small, full := NewForest(NewImplier(testSpec, 8)), NewForest(NewImplier(testSpec, 0))
	for _, f := range []*Forest{small, full} {
		f.Add(broad)
		f.Add(narrow)
	}
	if small.Roots() != 2 || full.Roots() != 1 {
		t.Fatalf("roots: maxNodes 8 installs %d, default %d; want 2 and 1", small.Roots(), full.Roots())
	}
	forwards := func(f *Forest, m *spec.Message) bool {
		for _, r := range f.sortedRoots() {
			if subscription.EvalExpr(r.expr, m, nil) {
				return true
			}
		}
		return false
	}
	for _, stock := range []string{"GOOGL", "MSFT"} {
		for _, price := range []int64{0, 500, 501, 900} {
			m := spec.NewMessage(testSpec)
			m.MustSet("stock", spec.StrVal(stock))
			m.MustSet("price", spec.IntVal(price))
			m.MustSet("shares", spec.IntVal(1))
			if a, b := forwards(small, m), forwards(full, m); a != b {
				t.Errorf("%s at %d: forwarded %v under-covered, %v covered", stock, price, a, b)
			}
		}
	}
}

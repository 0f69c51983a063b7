package ctlplane

import (
	"fmt"
	"math/rand"
	"testing"

	"camus/internal/routing"
	"camus/internal/routing/cover"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// TestCoveringMatchesBatchReduce is the covering analogue of
// TestPlacementMatchesAlgorithm1: for random subscription sets — with
// random interleaved removals — the covering reconciler's registered
// rule set per switch must equal the batch pipeline's, i.e.
// ComputeFatTree followed by cover.Reduce. Both sides keep
// exactly the maximal filters per port, so the incremental forest
// maintenance must converge to the batch covering regardless of
// operation order.
func TestCoveringMatchesBatchReduce(t *testing.T) {
	net := topology.MustFatTree(4)
	r := rand.New(rand.NewSource(23))
	im := cover.NewImplier(itchSpec, 0)
	for _, policy := range []routing.Policy{routing.MemoryReduction, routing.TrafficReduction} {
		for _, alpha := range []int64{0, 10} {
			for trial := 0; trial < 4; trial++ {
				subs := randomSubs(r, len(net.Hosts), 3)
				ropts := routing.Options{Policy: policy, Alpha: alpha}
				rec, err := NewReconcilerWith(net, itchSpec, WithRouting(ropts), WithCovering())
				if err != nil {
					t.Fatal(err)
				}
				type liveSub struct {
					id   int
					host int
					pos  int
				}
				var live []liveSub
				for h, exprs := range subs {
					for i, e := range exprs {
						id, _, err := rec.AddFilter(h, e)
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, liveSub{id: id, host: h, pos: i})
					}
				}
				// Remove a random third, so uncovering paths run too.
				r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				drop := len(live) / 3
				removed := make(map[int]map[int]bool) // host → pos set
				for _, s := range live[:drop] {
					if _, err := rec.RemoveFilter(s.host, s.id); err != nil {
						t.Fatal(err)
					}
					if removed[s.host] == nil {
						removed[s.host] = make(map[int]bool)
					}
					removed[s.host][s.pos] = true
				}
				remaining := make([][]subscription.Expr, len(subs))
				for h, exprs := range subs {
					for i, e := range exprs {
						if !removed[h][i] {
							remaining[h] = append(remaining[h], e)
						}
					}
				}
				res, err := routing.ComputeFatTree(net, remaining, ropts)
				if err != nil {
					t.Fatal(err)
				}
				cover.Reduce(im, res)
				for sw := range net.Switches {
					want := ruleSet(res.RulesForSwitch(sw))
					got := ruleSet(rec.pendingRules(sw))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v α=%d trial %d switch %s:\n got %v\nwant %v",
							policy, alpha, trial, net.Switches[sw].Name, got, want)
					}
				}
			}
		}
	}
}

// TestCoveringEquivalentKeepsFirst: of two equivalent filters on one
// port, the covering reconciler installs the one subscribed first, and
// the batch reduction that netcheck -covering certifies must install
// that same expression — not another member of its equivalence class.
func TestCoveringEquivalentKeepsFirst(t *testing.T) {
	net := topology.MustFatTree(4)
	ropts := routing.Options{Policy: routing.TrafficReduction}
	rec, err := NewReconcilerWith(net, itchSpec, WithRouting(ropts), WithCovering())
	if err != nil {
		t.Fatal(err)
	}
	first, second := filter(t, "stock == GOOGL and price >= 6"), filter(t, "stock == GOOGL and price > 5")
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{first, second}
	for _, e := range subs[0] {
		if _, _, err := rec.AddFilter(0, e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := routing.ComputeFatTree(net, subs, ropts)
	if err != nil {
		t.Fatal(err)
	}
	cover.Reduce(cover.NewImplier(itchSpec, 0), res)
	access, port := net.Access(0)
	if got, want := ruleSet(rec.pendingRules(access)), []string{fmt.Sprintf("%s: fwd(%d)", first, port)}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reconciler installs %v, want %v", got, want)
	}
	for sw := range net.Switches {
		want := ruleSet(rec.pendingRules(sw))
		if got := ruleSet(res.RulesForSwitch(sw)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("switch %s: batch reduction installs %v, reconciler %v", net.Switches[sw].Name, got, want)
		}
	}
}

// TestCoveringUncoverKeepsFirst: after an uncovering the live forest
// still agrees with the batch reduction of what is left. Two equivalent
// filters sit under a broad one; unsubscribing the broad filter must
// promote the one subscribed first, the expression a batch reduction of
// the two (in filter-ID order) installs — on every switch.
func TestCoveringUncoverKeepsFirst(t *testing.T) {
	net := topology.MustFatTree(4)
	ropts := routing.Options{Policy: routing.TrafficReduction}
	rec, err := NewReconcilerWith(net, itchSpec, WithRouting(ropts), WithCovering())
	if err != nil {
		t.Fatal(err)
	}
	broadID, _, err := rec.AddFilter(0, filter(t, "stock == GOOGL"))
	if err != nil {
		t.Fatal(err)
	}
	first, second := filter(t, "stock == GOOGL and price > 5"), filter(t, "stock == GOOGL and price >= 6")
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{first, second}
	for _, e := range subs[0] {
		if _, _, err := rec.AddFilter(0, e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rec.RemoveFilter(0, broadID); err != nil {
		t.Fatal(err)
	}
	res, err := routing.ComputeFatTree(net, subs, ropts)
	if err != nil {
		t.Fatal(err)
	}
	cover.Reduce(cover.NewImplier(itchSpec, 0), res)
	access, port := net.Access(0)
	if got, want := ruleSet(rec.pendingRules(access)), []string{fmt.Sprintf("%s: fwd(%d)", first, port)}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reconciler installs %v, want %v", got, want)
	}
	for sw := range net.Switches {
		want := ruleSet(rec.pendingRules(sw))
		if got := ruleSet(res.RulesForSwitch(sw)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("switch %s: batch reduction installs %v, reconciler %v", net.Switches[sw].Name, got, want)
		}
	}
}

// TestCoveringUncoverBatch asserts the no-gap contract at the op
// level: unsubscribing a covering filter emits, for the access switch,
// the root's delete and the promoted child's install in one op slice,
// which Compile lands as a single epoch.
func TestCoveringUncoverBatch(t *testing.T) {
	net := topology.MustFatTree(4)
	rec, err := NewReconcilerWith(net, itchSpec,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}), WithCovering())
	if err != nil {
		t.Fatal(err)
	}
	broad := filter(t, "stock == GOOGL")
	narrow := filter(t, "stock == GOOGL and price > 500")
	broadID, ops, err := rec.AddFilter(0, broad)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, rec, ops)
	_, ops, err = rec.AddFilter(0, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("covered subscribe emitted %d ops, want 0", len(ops))
	}
	entries, obligations := rec.CoverStats()
	if obligations == 0 || entries == 0 {
		t.Fatalf("CoverStats = %d entries, %d obligations; want both > 0", entries, obligations)
	}
	covered := rec.CoveredFilters()
	if len(covered) != 1 || covered[broadID] {
		t.Fatalf("CoveredFilters = %v, want exactly the narrow filter", covered)
	}

	ops, err = rec.RemoveFilter(0, broadID)
	if err != nil {
		t.Fatal(err)
	}
	asw, _ := net.Access(0)
	var dels, adds int
	for _, op := range ops {
		if op.Switch != asw {
			continue
		}
		if op.Add {
			adds++
			if op.Rule.Filter.String() != narrow.String() {
				t.Fatalf("promoted install is %q, want %q", op.Rule.Filter, narrow)
			}
		} else {
			dels++
		}
	}
	if dels != 1 || adds != 1 {
		t.Fatalf("access-switch uncover batch: %d deletes, %d installs; want 1/1", dels, adds)
	}
	results := drainAll(t, rec, ops)
	if res := results[asw]; res == nil || res.Full {
		t.Fatalf("access switch compile = %+v, want incremental result", results[asw])
	}
	if got := ruleSet(rec.Rules(asw)); len(got) == 0 {
		t.Fatal("access switch lost all rules after uncovering")
	}
	if rec.CoveredFilters()[broadID] || len(rec.CoveredFilters()) != 0 {
		t.Fatalf("CoveredFilters after uncover = %v, want empty", rec.CoveredFilters())
	}
}

// TestCoveringServiceSnapshot drives covering through the async
// Service and checks the Snapshot telemetry and per-filter covered
// accounting.
func TestCoveringServiceSnapshot(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, err := New(net, itchSpec,
		WithRouting(routing.Options{Policy: routing.TrafficReduction, Alpha: 10}),
		WithCovering())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
		t.Fatal(err)
	}
	_, ids, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL and price > 500")})
	if err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	snap := svc.Stats()
	if !snap.Covering || snap.CoverEntries == 0 || snap.CoverObligations == 0 {
		t.Fatalf("snapshot covering telemetry = %+v", snap)
	}
	if snap.CoverSavingsRatio <= 0 || snap.CoverSavingsRatio >= 1 {
		t.Fatalf("CoverSavingsRatio = %v, want in (0,1)", snap.CoverSavingsRatio)
	}
	covered := svc.CoveredFilters()
	if len(ids) != 1 || !covered[ids[0]] {
		t.Fatalf("CoveredFilters = %v, want narrow id %v covered", covered, ids)
	}
}

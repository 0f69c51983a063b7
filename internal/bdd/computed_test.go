package bdd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// churnStep is one batch of a build: rules added, rule IDs removed, then a
// merge.
type churnStep struct {
	add    []subscription.NormalizedRule
	remove []int
}

// runSteps builds steps in a fresh engine whose computed table holds at
// most limit slots (0: as sized) and returns the engine and each merge's
// diagram.
func runSteps(t *testing.T, sp *spec.Spec, opts Options, steps []churnStep, limit int) (*Engine, []*BDD) {
	t.Helper()
	e := NewEngine(sp, opts)
	e.b.computed.limit = limit
	var ds []*BDD
	for i, s := range steps {
		if err := e.Add(s.add...); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, id := range s.remove {
			e.Remove(id)
		}
		d, err := e.Merge()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ds = append(ds, d)
	}
	return e, ds
}

// normalizeAll parses and normalizes rule sources, the i-th as rule first+i.
func normalizeAll(t *testing.T, sp *spec.Spec, first int, srcs []string) []subscription.NormalizedRule {
	t.Helper()
	var out []subscription.NormalizedRule
	for i, src := range srcs {
		out = append(out, normalize(t, sp, src, first+i)...)
	}
	return out
}

// intRangeLike is the int_range workload's shape, scaled down: switch and
// port equalities crossed with overlapping latency and queue thresholds.
func intRangeLike(n int, seed int64) []string {
	const switches, ports = 16, 8
	r := rand.New(rand.NewSource(seed))
	srcs := make([]string, n)
	for i, na, nb := 0, 0, 0; i < n; i++ {
		if i%4 == 3 {
			srcs[i] = fmt.Sprintf("egress_port == %d and hop_latency > %d: fwd(%d)",
				nb%ports, 700+18*((nb/ports+nb)%16)+r.Intn(6), i%48)
			nb++
			continue
		}
		k := na / switches
		srcs[i] = fmt.Sprintf("switch_id == %d and hop_latency > %d and queue_depth > %d: fwd(%d)",
			na%switches, 706+18*k+r.Intn(6), 32+2*(k*5%12)+r.Intn(2), i%48)
		na++
	}
	return srcs
}

// TestComputedTableLossless: the computed table only saves work. Each load
// is built twice, once with the computed table as sized and once with it
// held to one slot, so that nearly every recursive subproblem is computed
// again. A recomputation finds every node it builds in the unique table,
// so both engines must create the same nodes in the same order, merge to
// the same roots and reach the same diagrams.
func TestComputedTableLossless(t *testing.T) {
	intSrcs := intRangeLike(160, 1)
	sienaRules, err := workload.SienaRules(workload.SienaConfig{
		Spec: formats.ITCH, Filters: 120, MinPredicates: 1, MaxPredicates: 3, Seed: 1,
	}, 32)
	if err != nil {
		t.Fatal(err)
	}
	var siena []subscription.NormalizedRule
	for _, r := range sienaRules {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			t.Fatal(err)
		}
		siena = append(siena, nrs...)
	}
	// The churn adds the int_range rules in batches, removes some, merges
	// after each batch, and brings removed rules back.
	var churn []churnStep
	for lo := 0; lo < 120; lo += 30 {
		s := churnStep{add: normalizeAll(t, formats.INT, lo, intSrcs[lo:lo+30])}
		for id := lo / 2; id < lo; id += 7 {
			s.remove = append(s.remove, id)
		}
		churn = append(churn, s)
	}
	churn = append(churn, churnStep{add: normalizeAll(t, formats.INT, 15, intSrcs[15:16])},
		churnStep{add: normalizeAll(t, formats.INT, 120, intSrcs[120:])})

	for _, load := range []struct {
		name  string
		sp    *spec.Spec
		opts  Options
		steps []churnStep
	}{
		{"int_range", formats.INT, Options{}, []churnStep{{add: normalizeAll(t, formats.INT, 0, intSrcs)}}},
		{"siena", formats.ITCH, Options{}, []churnStep{{add: siena}}},
		{"no-pruning", spec.MustParse("race", raceSpecSrc), Options{DisablePruning: true}, []churnStep{{add: raceRules(t, 200, 9)}}},
		{"churn", formats.INT, Options{}, churn},
	} {
		t.Run(load.name, func(t *testing.T) {
			want, wantDs := runSteps(t, load.sp, load.opts, load.steps, 0)
			got, gotDs := runSteps(t, load.sp, load.opts, load.steps, 1)
			if len(got.b.computed.slots) != 1 || len(want.b.computed.slots) < minCacheSlots {
				t.Fatalf("computed tables of %d and %d slots", len(got.b.computed.slots), len(want.b.computed.slots))
			}
			if !slices.Equal(got.b.nodes, want.b.nodes) {
				t.Fatalf("node stores differ: %d nodes against %d", len(got.b.nodes), len(want.b.nodes))
			}
			if !slices.EqualFunc(got.b.terms, want.b.terms, func(a, b term) bool { return a.acts.Equal(b.acts) }) {
				t.Fatal("terminal action sets differ")
			}
			for i := range wantDs {
				g, w := gotDs[i].Reachable(), wantDs[i].Reachable()
				if gotDs[i].Parts[0].Root.ID != wantDs[i].Parts[0].Root.ID || !slices.EqualFunc(g, w, sameNode) {
					t.Fatalf("merge %d: root %d reaching %d nodes, want root %d reaching %d",
						i, gotDs[i].Parts[0].Root.ID, len(g), wantDs[i].Parts[0].Root.ID, len(w))
				}
			}
			if gm, wm := got.b.memo.len(), want.b.memo.len(); gm != wm {
				t.Errorf("merge-tree memo holds %d pairs, want %d", gm, wm)
			}
			t.Logf("%d nodes, %d merges, root reaches %d", len(want.b.nodes), len(wantDs), len(wantDs[len(wantDs)-1].Reachable()))
		})
	}
}

// sameNode compares two materialised nodes by ID, predicate, children and
// actions.
func sameNode(a, b *Node) bool {
	if a.ID != b.ID || a.IsTerminal() != b.IsTerminal() {
		return false
	}
	if a.IsTerminal() {
		return a.Actions.Equal(b.Actions)
	}
	return a.Pred.ID == b.Pred.ID && a.Hi.ID == b.Hi.ID && a.Lo.ID == b.Lo.ID
}

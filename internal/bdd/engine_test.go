package bdd

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

func normalize(t testing.TB, sp *spec.Spec, src string, id int) []subscription.NormalizedRule {
	t.Helper()
	r, err := subscription.NewParser(sp).ParseRule(src, id)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", src, err)
	}
	nrs, err := subscription.NormalizeRule(r)
	if err != nil {
		t.Fatal(err)
	}
	return nrs
}

func TestEngineAddRemove(t *testing.T) {
	sp := testSpec(t)
	e := NewEngine(sp, Options{})

	if err := e.Add(normalize(t, sp, "stock == GOOGL: fwd(1)", 1)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(normalize(t, sp, "price > 50: fwd(2)", 2)...); err != nil {
		t.Fatal(err)
	}
	d := e.Build()
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal("GOOGL"))
	m.MustSet("price", spec.IntVal(60))
	m.MustSet("shares", spec.IntVal(1))
	m.MustSet("name", spec.StrVal("x"))
	if got := d.Eval(m, nil).Key(); got != "fwd(1,2)" {
		t.Fatalf("eval = %s", got)
	}

	if !e.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if e.Remove(1) {
		t.Fatal("double remove succeeded")
	}
	d2 := e.Build()
	if got := d2.Eval(m, nil).Key(); got != "fwd(2)" {
		t.Fatalf("after remove: %s", got)
	}
	if ids := e.Rules(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("Rules = %v", ids)
	}
	nodes, memo := e.CacheSize()
	if nodes == 0 || memo == 0 {
		t.Errorf("caches empty: %d %d", nodes, memo)
	}
	// 12 bytes a node and 16 a memo slot, before anything else is counted.
	if got := e.CacheBytes(); got < 12*nodes+16*memo {
		t.Errorf("CacheBytes = %d for %d nodes and %d memo entries", got, nodes, memo)
	}
}

// TestEngineUniverseGrowth: predicates appended by later rules keep
// earlier nodes' variable order valid.
func TestEngineUniverseGrowth(t *testing.T) {
	sp := testSpec(t)
	e := NewEngine(sp, Options{})
	srcs := []string{
		"price > 50: fwd(1)",
		"price > 10 and stock == MSFT: fwd(2)", // new pred on existing field + new field
		"shares < 5: fwd(3)",                   // new field ordered before price in spec
		"price == 30: fwd(4)",
	}
	for i, src := range srcs {
		if err := e.Add(normalize(t, sp, src, i)...); err != nil {
			t.Fatal(err)
		}
		d := e.Build()
		// Order invariant along every path.
		for _, n := range d.Reachable() {
			if n.IsTerminal() {
				continue
			}
			for _, next := range []*Node{n.Hi, n.Lo} {
				if !next.IsTerminal() && !n.Pred.Less(next.Pred) {
					t.Fatalf("after rule %d: order violated %v -> %v", i, n, next)
				}
			}
		}
	}
	// Semantics against brute force.
	p := subscription.NewParser(sp)
	var rules []*subscription.Rule
	for i, src := range srcs {
		r, err := p.ParseRule(src, i)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	d := e.Build()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		m := spec.NewMessage(sp)
		m.MustSet("price", spec.IntVal(int64(r.Intn(70))))
		m.MustSet("shares", spec.IntVal(int64(r.Intn(10))))
		m.MustSet("stock", spec.StrVal([]string{"GOOGL", "MSFT"}[r.Intn(2)]))
		m.MustSet("name", spec.StrVal("x"))
		want := subscription.MatchActions(rules, m, nil).Key()
		if got := d.Eval(m, nil).Key(); got != want {
			t.Fatalf("engine mismatch on %s: %s vs %s", m, got, want)
		}
	}
}

// TestEngineNodeIDStability: node IDs of unchanged subgraphs survive
// add/remove cycles (the basis of table-entry diffing).
func TestEngineNodeIDStability(t *testing.T) {
	sp := testSpec(t)
	e := NewEngine(sp, Options{})
	for i := 0; i < 20; i++ {
		if err := e.Add(normalize(t, sp, fmt.Sprintf("stock == S%02d: fwd(%d)", i, i%4), i)...); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Build()
	if err := e.Add(normalize(t, sp, "stock == EXTRA: fwd(9)", 99)...); err != nil {
		t.Fatal(err)
	}
	e.Remove(99)
	after := e.Build()
	if before.Root.ID != after.Root.ID {
		t.Errorf("root ID changed across add/remove: %d vs %d", before.Root.ID, after.Root.ID)
	}
}

// TestUniverseExtend: Extend canonicalizes predicates, keeps the seeded
// field order, and orders the fields one call introduces by fieldLess
// whichever rule names them first.
func TestUniverseExtend(t *testing.T) {
	sp := testSpec(t)
	u := NewUniverse(sp, CanonicalOrder)
	seeded := len(u.Fields)
	extend := func(src string) (*Pred, bool) {
		t.Helper()
		nrs := normalize(t, sp, src+": fwd(1)", 0)
		if err := u.Extend(nrs); err != nil {
			t.Fatal(err)
		}
		p, pos, err := u.Lookup(nrs[0].Conj[0])
		if err != nil {
			t.Fatal(err)
		}
		return p, pos
	}
	p1, pos := extend("price > 5")
	if !pos || p1.Rel != subscription.GT {
		t.Fatalf("Extend: %v %v", p1, pos)
	}
	// Same atom: same predicate.
	if p1b, _ := extend("price > 5"); p1b != p1 {
		t.Error("Extend not idempotent")
	}
	// Negative-polarity canonicalization.
	if p2, pos2 := extend("price <= 5"); p2 != p1 || pos2 {
		t.Errorf("price <= 5 should be ¬(price > 5): %v %v", p2, pos2)
	}
	// A seeded field keeps its place: the exact field stock is tested
	// before price although it arrived later.
	if p3, _ := extend("stock == A"); !p3.Less(p1) {
		t.Error("stock (@field_exact) does not order before price")
	}
	if len(u.Fields) != seeded || len(u.Preds) != 2 {
		t.Errorf("universe: %d fields (seeded %d), %d preds", len(u.Fields), seeded, len(u.Preds))
	}
	// Aggregates append after every seeded field, in key order although
	// the first rule names the later one.
	if err := u.Extend(append(normalize(t, sp, "count(1s) > 3: fwd(1)", 1), normalize(t, sp, "avg(price, 1s) > 4: fwd(2)", 2)...)); err != nil {
		t.Fatal(err)
	}
	aggs := u.AggregateFields()
	if len(aggs) != 2 || aggs[0].Index != seeded || aggs[0].Key() > aggs[1].Key() {
		t.Fatalf("aggregates %v, want two in key order from field %d", aggs, seeded)
	}
	for _, f := range aggs {
		for _, p := range f.Preds {
			if p.FieldIdx != f.Index {
				t.Errorf("%s: predicate %v has FieldIdx %d, field index %d", f.Key(), p, p.FieldIdx, f.Index)
			}
		}
	}
}

// TestEngineNodeCap: a capped engine fails the Add or Merge that would
// exceed MaxNodes with ErrTooLarge, and no panic escapes.
func TestEngineNodeCap(t *testing.T) {
	sp := testSpec(t)
	var rules []*subscription.Rule
	p := subscription.NewParser(sp)
	for i := 0; i < 30; i++ {
		r, err := p.ParseRule(fmt.Sprintf("price > %d and shares < %d: fwd(%d)", i*3, 100-i, i%8), i)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	if _, err := buildRules(sp, rules, Options{MaxNodes: 10}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("node cap not enforced: %v", err)
	}
	if _, err := buildRules(sp, rules, Options{}); err != nil {
		t.Errorf("uncapped build failed: %v", err)
	}

	// Every site that creates a node enforces the cap. Two rules on one
	// predicate build nodes in a known order — ∅, fwd(1), its chain node,
	// fwd(2), its chain node (Add), then the merge's fwd(1,2) and root
	// (Merge) — so each cap below stops construction at a different site,
	// and one more node lets it through.
	pair := parseRules(t, sp, "price > 5: fwd(1)\nprice > 5: fwd(2)")
	for _, c := range []struct {
		max  int
		site string
	}{
		{1, "terminal, building a chain"},
		{2, "mkNode, building a chain"},
		{5, "terminal, merging two terminals"},
		{6, "mkNode, merging"},
	} {
		if _, err := buildRules(sp, pair, Options{MaxNodes: c.max}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("MaxNodes %d (%s): err = %v, want ErrTooLarge", c.max, c.site, err)
		}
	}
	d, err := buildRules(sp, pair, Options{MaxNodes: 7})
	if err != nil {
		t.Fatalf("MaxNodes 7: %v", err)
	}
	if got := len(d.Reachable()); got != 3 {
		t.Errorf("two rules on one predicate reach %d nodes, want 3", got)
	}
}

// TestUnknownRelationIsAnError: an atom whose relation is none of the
// parser's fails Add and Lookup with an error, not a panic, and the failed
// Add leaves the engine as it was.
func TestUnknownRelationIsAnError(t *testing.T) {
	sp := testSpec(t)
	e := NewEngine(sp, Options{})
	good := normalize(t, sp, "price > 5: fwd(1)", 1)
	bad := normalize(t, sp, "shares < 7 and price > 9: fwd(2)", 2)
	bad[0].Conj[1].Rel = subscription.Relation(99)
	if err := e.Add(append(good, bad...)...); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("Add of relation 99: err = %v, want an unknown-relation error", err)
	}
	if _, _, err := e.Universe().Lookup(bad[0].Conj[1]); err == nil {
		t.Error("Lookup of relation 99: no error")
	}
	if n := len(e.Universe().Preds); n != 0 {
		t.Errorf("failed Add left %d predicates in the universe", n)
	}
	if err := e.Add(good...); err != nil {
		t.Fatal(err)
	}
	if d, err := e.Merge(); err != nil || len(d.Reachable()) != 3 {
		t.Fatalf("after the failed Add: Merge = %v, %v", d, err)
	}
}

// TestRecoverTooLarge: the tooLarge sentinel is the one panic Add and
// Merge turn into an error, and it becomes exactly ErrTooLarge; any other
// panic goes on up.
func TestRecoverTooLarge(t *testing.T) {
	run := func(v any) (err error, escaped any) {
		defer func() { escaped = recover() }()
		func() {
			defer recoverTooLarge(&err)
			panic(v)
		}()
		return err, nil
	}
	if err, escaped := run(tooLarge{}); err != ErrTooLarge || escaped != nil {
		t.Errorf("tooLarge: err = %v, escaped %v; want ErrTooLarge", err, escaped)
	}
	for _, v := range []any{"boom", errors.New("boom"), ErrTooLarge} {
		if err, escaped := run(v); err != nil || escaped != v {
			t.Errorf("panic(%v): err = %v, escaped %v; want the panic to go on up", v, err, escaped)
		}
	}
}

// TestEngineDroppedRulesFollowRemove: the count of unsatisfiable disjuncts
// is per rule and leaves with the rule, so DroppedRules always equals what
// a fresh engine of the surviving rules reports.
func TestEngineDroppedRulesFollowRemove(t *testing.T) {
	sp := testSpec(t)
	e := NewEngine(sp, Options{})
	srcs := map[int]string{
		1: "stock == GOOGL: fwd(1)",
		7: "price > 20 and price < 10: fwd(1)",                 // unsatisfiable outright
		8: "(price > 20 and price < 10) or shares < 5: fwd(2)", // one disjunct of two
	}
	freshDropped := func() int {
		t.Helper()
		fresh := NewEngine(sp, Options{})
		for _, id := range []int{1, 7, 8} {
			if src, ok := srcs[id]; ok {
				if err := fresh.Add(normalize(t, sp, src, id)...); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fresh.Build().DroppedRules
	}
	for _, id := range []int{1, 7, 8} {
		if err := e.Add(normalize(t, sp, srcs[id], id)...); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := e.Build().DroppedRules, freshDropped(); got != want || want != 2 {
		t.Fatalf("after adds: DroppedRules = %d, fresh engine %d, want 2", got, want)
	}
	if got := fmt.Sprint(e.Rules()); got != "[1 8]" {
		t.Errorf("Rules = %s: rule 7 has no satisfiable disjunct to merge", got)
	}
	for _, id := range []int{7, 8} {
		if !e.Remove(id) {
			t.Errorf("Remove(%d) reported the rule unknown", id)
		}
		delete(srcs, id)
		if got, want := e.Build().DroppedRules, freshDropped(); got != want {
			t.Errorf("after Remove(%d): DroppedRules = %d, fresh engine of the survivors %d", id, got, want)
		}
		if e.Remove(id) {
			t.Errorf("second Remove(%d) succeeded", id)
		}
	}
}

// colliding is an IntConstraint whose every value hashes alike, so
// interning must tell contexts apart by equality alone.
type colliding struct{ *match.IntConstraint }

func (c colliding) Hash() uint64 { return 7 }
func (c colliding) Equal(o match.Constraint) bool {
	oc, ok := o.(colliding)
	return ok && c.IntConstraint.Equal(oc.IntConstraint)
}

// TestCtxInternHashCollisions: contexts sharing a (field, hash) key are
// chained and found again by equality; the same constraint under another
// field is a different context.
func TestCtxInternHashCollisions(t *testing.T) {
	var cc ctxCache
	mk := func(lo int64) match.Constraint { return colliding{&match.IntConstraint{Lo: lo, Hi: 100}} }
	intern := cc.intern
	ids := make(map[int32]bool)
	for lo := int64(0); lo < 5; lo++ {
		ids[intern(0, mk(lo))] = true
	}
	ids[intern(1, mk(0))] = true
	if len(ids) != 6 {
		t.Fatalf("6 distinct contexts interned to %d IDs", len(ids))
	}
	for lo := int64(0); lo < 5; lo++ {
		id := intern(0, mk(lo))
		if !ids[id] || !cc.ctxs[id].Equal(mk(lo)) {
			t.Errorf("re-interning [%d,100] gave context %d = %s", lo, id, cc.ctxs[id].Key())
		}
	}
	if len(cc.ctxs) != 6 {
		t.Errorf("re-interning grew the cache to %d contexts", len(cc.ctxs))
	}
}

// TestEngineOrderSortedByConstruction: the merge order is ascending rule
// ID whatever the arrival order, and removal keeps it so.
func TestEngineOrderSortedByConstruction(t *testing.T) {
	sp := testSpec(t)
	e := NewEngine(sp, Options{})
	for _, id := range []int{5, 1, 9, 3, 7} {
		if err := e.Add(normalize(t, sp, fmt.Sprintf("price > %d: fwd(%d)", 10*id, id), id)...); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(e.Rules()); got != "[1 3 5 7 9]" {
		t.Fatalf("Rules = %s", got)
	}
	if !e.Remove(5) || e.Remove(4) {
		t.Fatal("Remove(5) failed or Remove(4) succeeded")
	}
	if got := fmt.Sprint(e.Rules()); got != "[1 3 7 9]" {
		t.Fatalf("Rules after Remove(5) = %s", got)
	}
	if err := e.Add(normalize(t, sp, "price > 55: fwd(5)", 5)...); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(e.Rules()); got != "[1 3 5 7 9]" {
		t.Fatalf("Rules after re-adding 5 = %s", got)
	}
	m := spec.NewMessage(sp)
	m.MustSet("price", spec.IntVal(60))
	if got := e.Build().Eval(m, nil).Key(); got != "fwd(1,3,5)" {
		t.Errorf("eval = %s", got)
	}
}

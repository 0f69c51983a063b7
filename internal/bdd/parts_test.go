package bdd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// partsSrc has two rule shapes on different fields, {stock, price} and
// {shares}: merged, every shares threshold splits every symbol's price
// ranges, so they are two parts.
func partsSrc() string {
	var b strings.Builder
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			fmt.Fprintf(&b, "stock == S%d and price > %d: fwd(%d)\n", i, 100+200*j+i, 1+(i+j)%5)
		}
	}
	for k := 0; k < 6; k++ {
		fmt.Fprintf(&b, "shares > %d: fwd(%d)\n", 2+3*k, 6+k%3)
	}
	return b.String()
}

func normalizeRules(t *testing.T, rules []*subscription.Rule) []subscription.NormalizedRule {
	t.Helper()
	var out []subscription.NormalizedRule
	for _, r := range rules {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, nrs...)
	}
	return out
}

// TestMergePartsOneGroup: rules that all test the same fields are one
// part, built as Merge builds the one diagram — the same nodes under the
// same IDs — and the store holds exactly Merge's nodes: no trial ran.
func TestMergePartsOneGroup(t *testing.T) {
	sp := testSpec(t)
	rules := parseRules(t, sp, "stock == A and price > 5: fwd(1)\nstock == B and price < 9: fwd(2)\nstock == A and price > 7: fwd(3)")
	a, b := NewEngine(sp, Options{}), NewEngine(sp, Options{})
	for _, e := range []*Engine{a, b} {
		if err := e.Add(normalizeRules(t, rules)...); err != nil {
			t.Fatal(err)
		}
	}
	one, err := a.Merge()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := b.MergeParts()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts.Parts) != 1 || parts.Parts[0].Rules != nil || parts.Parts[0].Root.ID != one.Parts[0].Root.ID || parts.Dot() != one.Dot() {
		t.Fatalf("one group: parts %v, root %d, want one part and root %d", parts.Parts, parts.Parts[0].Root.ID, one.Parts[0].Root.ID)
	}
	if len(b.b.nodes) != len(a.b.nodes) {
		t.Errorf("one group: the store holds %d nodes, Merge's %d", len(b.b.nodes), len(a.b.nodes))
	}
}

// TestMergePartsSplit: two shapes whose merge blows up are two parts,
// each holding its rules; the union of the parts' action sets is the one
// diagram's; a merged diagram within the bound is one part, and a
// history that ends at the same rules chooses the same parts.
func TestMergePartsSplit(t *testing.T) {
	sp := testSpec(t)
	rules := parseRules(t, sp, partsSrc())
	nrs := normalizeRules(t, rules)
	e := NewEngine(sp, Options{})
	if err := e.Add(nrs...); err != nil {
		t.Fatal(err)
	}
	d, err := e.MergeParts()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Parts) != 2 {
		t.Fatalf("%d parts, want 2", len(d.Parts))
	}
	if got := d.Parts[1].Rules; !slices.Equal(got, []int{24, 25, 26, 27, 28, 29}) {
		t.Errorf("second part holds %v, want the shares rules 24..29", got)
	}
	oneEngine := NewEngine(sp, Options{})
	if err := oneEngine.Add(nrs...); err != nil {
		t.Fatal(err)
	}
	one := oneEngine.Build()
	if n, m := len(d.Reachable()), len(one.Reachable()); n*2 > m {
		t.Errorf("parts reach %d nodes, the one diagram %d: the split saves less than half", n, m)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		m := spec.NewMessage(sp)
		m.MustSet("stock", spec.StrVal(fmt.Sprintf("S%d", r.Intn(10))))
		m.MustSet("price", spec.IntVal(int64(r.Intn(800))))
		m.MustSet("shares", spec.IntVal(int64(r.Intn(25))))
		m.MustSet("name", spec.StrVal("x"))
		if got, want := d.Eval(m, nil).Key(), one.Eval(m, nil).Key(); got != want {
			t.Fatalf("%s: parts %s, one diagram %s", m, got, want)
		}
	}

	// A history through other rule sets: the shares rules first, a
	// symbol-only rule in between, then the rest.
	h := NewEngine(sp, Options{})
	extra := normalize(t, sp, "stock == S3: fwd(9)", 99)
	for _, step := range [][]subscription.NormalizedRule{nrs[24:], extra, nrs[:24]} {
		if err := h.Add(step...); err != nil {
			t.Fatal(err)
		}
		if _, err := h.MergeParts(); err != nil {
			t.Fatal(err)
		}
	}
	h.Remove(99)
	hd, err := h.MergeParts()
	if err != nil {
		t.Fatal(err)
	}
	if len(hd.Parts) != len(d.Parts) {
		t.Fatalf("history: %d parts, batch %d", len(hd.Parts), len(d.Parts))
	}
	for i := range d.Parts {
		if !slices.Equal(hd.Parts[i].Rules, d.Parts[i].Rules) {
			t.Errorf("history part %d holds %v, batch %v", i, hd.Parts[i].Rules, d.Parts[i].Rules)
		}
	}
}

// TestTrialBudget: a rejected trial, run in the engine's one store,
// creates at most its bound of nodes and is not tried again; under an
// engine MaxNodes below what the trial needs, MergeParts fails with
// ErrTooLarge, the store never passes MaxNodes, and no rejection is
// memoized.
func TestTrialBudget(t *testing.T) {
	sp := testSpec(t)
	nrs := normalizeRules(t, parseRules(t, sp, partsSrc()))
	// groupRoots adds nrs to a fresh engine and merges its two groups, as
	// MergeParts does before its first trial.
	groupRoots := func(maxNodes int) (e *Engine, a, b int32) {
		e = NewEngine(sp, Options{MaxNodes: maxNodes})
		if err := e.Add(nrs...); err != nil {
			t.Fatal(err)
		}
		label, n := e.groups()
		if n != 2 {
			t.Fatalf("%d groups, want 2", n)
		}
		a = e.mergeLive(func(i int) bool { return label[i] == 0 })
		b = e.mergeLive(func(i int) bool { return label[i] == 1 })
		return e, a, b
	}
	e, a, b := groupRoots(0)
	base := len(e.b.nodes)
	bound := partFactor * (e.size(a, -1) + e.size(b, -1))
	if _, ok := e.tryOr(a, b, bound); ok {
		t.Fatal("the blow-up merge was accepted")
	}
	created := len(e.b.nodes) - base
	if created > bound {
		t.Errorf("the rejected trial created %d nodes, bound %d", created, bound)
	}
	if _, ok := e.tryOr(a, b, bound); ok || len(e.b.nodes) != base+created {
		t.Error("the rejected pair was tried again")
	}
	if e.b.maxNodes != 0 {
		t.Errorf("the trial left the store capped at %d nodes", e.b.maxNodes)
	}

	t.Logf("groups %d nodes, the rejected trial %d, bound %d", base, created, bound)
	maxNodes := base + created/2
	capped, ca, cb := groupRoots(maxNodes)
	if _, err := capped.MergeParts(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("MaxNodes %d below the trial's %d: MergeParts returned %v, want ErrTooLarge", maxNodes, base+created, err)
	}
	if n := len(capped.b.nodes); n > maxNodes {
		t.Errorf("the store holds %d nodes, MaxNodes %d", n, maxNodes)
	}
	if _, rejected := capped.b.memo.get(ca, cb, 1); rejected {
		t.Error("a trial stopped by MaxNodes was memoized as rejected")
	}
}

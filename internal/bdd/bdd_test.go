package bdd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/spec"
	"camus/internal/subscription"
)

const testSpecSrc = `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
    name : str16 @field;
}
`

func testSpec(t testing.TB) *spec.Spec {
	t.Helper()
	return spec.MustParse("test", testSpecSrc)
}

func parseRules(t testing.TB, sp *spec.Spec, src string) []*subscription.Rule {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	return rules
}

// buildRules normalizes rules and merges them in a fresh engine: the
// one-shot build.
func buildRules(sp *spec.Spec, rules []*subscription.Rule, opts Options) (*BDD, error) {
	var normalized []subscription.NormalizedRule
	for _, r := range rules {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			return nil, err
		}
		normalized = append(normalized, nrs...)
	}
	e := NewEngine(sp, opts)
	if err := e.Add(normalized...); err != nil {
		return nil, err
	}
	return e.Merge()
}

func build(t testing.TB, sp *spec.Spec, src string, opts Options) *BDD {
	t.Helper()
	d, err := buildRules(sp, parseRules(t, sp, src), opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return d
}

// TestPaperFigure5 reproduces the shape of the running example: three
// overlapping rules over shares and stock, sliced into two field
// components plus terminals (Fig. 5/6).
func TestPaperFigure5(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, `
shares < 100 and stock == GOOGL: fwd(1)
shares < 100 and stock == GOOGL and price > 0: fwd(2)
shares >= 100 and stock == MSFT: fwd(3)
`, Options{})

	eval := func(shares, price int64, stock string) string {
		m := spec.NewMessage(sp)
		m.MustSet("shares", spec.IntVal(shares))
		m.MustSet("price", spec.IntVal(price))
		m.MustSet("stock", spec.StrVal(stock))
		return d.Eval(m, nil).Key()
	}
	if got := eval(50, 10, "GOOGL"); got != "fwd(1,2)" {
		t.Errorf("overlapping rules merged to %s, want fwd(1,2)", got)
	}
	if got := eval(50, 0, "GOOGL"); got != "fwd(1)" {
		t.Errorf("price==0 → %s, want fwd(1)", got)
	}
	if got := eval(200, 10, "MSFT"); got != "fwd(3)" {
		t.Errorf("MSFT high shares → %s, want fwd(3)", got)
	}
	if got := eval(200, 10, "GOOGL"); got != "fwd()" {
		t.Errorf("no match → %s, want fwd()", got)
	}

	// Variable order: stock (exact) before shares before price.
	stats := d.Stats()
	if stats.PerField["itch_order.shares"] == 0 || stats.PerField["itch_order.stock"] == 0 {
		t.Errorf("expected shares and stock components, got %v", stats.PerField)
	}
	for _, n := range d.Reachable() {
		if n.IsTerminal() {
			continue
		}
		for _, next := range []*Node{n.Hi, n.Lo} {
			if !next.IsTerminal() && !n.Pred.Less(next.Pred) {
				t.Fatalf("variable order violated: %v -> %v", n, next)
			}
		}
	}
}

// TestReductionInvariants: no reachable node has Hi==Lo, and no two
// reachable internal nodes are isomorphic (reductions i and ii).
func TestReductionInvariants(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, `
price > 10 and price < 20: fwd(1)
price > 10 and price < 30: fwd(2)
price > 5 or stock == A: fwd(3)
shares == 7 and stock != A: fwd(4)
name prefix "video/": fwd(5)
`, Options{})
	seen := make(map[string]bool)
	for _, n := range d.Reachable() {
		if n.IsTerminal() {
			continue
		}
		if n.Hi == n.Lo {
			t.Errorf("node %v has identical branches", n)
		}
		key := fmt.Sprintf("%d,%d,%d", n.Pred.ID, n.Hi.ID, n.Lo.ID)
		if seen[key] {
			t.Errorf("duplicate isomorphic node %v", n)
		}
		seen[key] = true
	}
}

// TestImplicationPruning: a rule whose conjunction is semantically
// unsatisfiable across predicates (price > 20 and price < 10) must
// contribute nothing, and implied predicates must not be re-tested.
func TestImplicationPruning(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, `
price > 20 and price < 10: fwd(1)
price > 50 and price > 40: fwd(2)
`, Options{})
	m := spec.NewMessage(sp)
	m.MustSet("price", spec.IntVal(60))
	if got := d.Eval(m, nil).Key(); got != "fwd(2)" {
		t.Errorf("eval = %s, want fwd(2)", got)
	}
	// No path may test price>40 after price>50 is true: count internal
	// nodes — the contradictory rule adds none, and the implied
	// predicate collapses, so at most 2 internal nodes survive
	// (price>40 and price>50 with sharing).
	if s := d.Stats(); s.Internal > 2 {
		t.Errorf("expected <=2 internal nodes after pruning, got %d: %v", s.Internal, s.PerField)
	}

	// Terminal for rule 1's action must be unreachable.
	for _, n := range d.Reachable() {
		if n.IsTerminal() && strings.Contains(n.Actions.Key(), "fwd(1)") {
			t.Error("unsatisfiable rule's action is reachable")
		}
	}
}

func TestSyntacticContradictionDropped(t *testing.T) {
	// Normalize already drops contradictions it can see, so feed the
	// builder a hand-made normalized rule using one predicate with both
	// polarities to exercise the chain-level guard.
	sp := testSpec(t)
	p := subscription.NewParser(sp)
	eq, err := p.ParseFilter("price == 5")
	if err != nil {
		t.Fatal(err)
	}
	ne, err := p.ParseFilter("price != 5")
	if err != nil {
		t.Fatal(err)
	}
	nr := subscription.NormalizedRule{
		RuleID: 0,
		Conj:   subscription.Conjunction{eq.(*subscription.Atom), ne.(*subscription.Atom)},
		Action: subscription.FwdAction(1),
	}
	e := NewEngine(sp, Options{})
	if err := e.Add(nr); err != nil {
		t.Fatal(err)
	}
	if d := e.Build(); d.DroppedRules != 1 {
		t.Errorf("DroppedRules = %d, want 1", d.DroppedRules)
	}
	// And the front-door path: Normalize drops it before the builder.
	rules := parseRules(t, sp, "price == 5 and price != 5: fwd(1)\nprice > 1: fwd(2)")
	d2, err := buildRules(sp, rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(sp)
	m.MustSet("price", spec.IntVal(5))
	if got := d2.Eval(m, nil).Key(); got != "fwd(2)" {
		t.Errorf("eval = %s, want fwd(2)", got)
	}
}

func TestStringPrefixPredicates(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, `
name prefix "video/": fwd(1)
name prefix "video/cats/": fwd(2)
name == "video/cats/tom": fwd(3)
`, Options{})
	eval := func(name string) string {
		m := spec.NewMessage(sp)
		m.MustSet("name", spec.StrVal(name))
		return d.Eval(m, nil).Key()
	}
	if got := eval("video/cats/tom"); got != "fwd(1,2,3)" {
		t.Errorf("tom = %s, want fwd(1,2,3)", got)
	}
	if got := eval("video/dogs"); got != "fwd(1)" {
		t.Errorf("dogs = %s, want fwd(1)", got)
	}
	if got := eval("audio/x"); got != "fwd()" {
		t.Errorf("audio = %s, want fwd()", got)
	}
}

func TestAggregatePredicates(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, `
stock == GOOGL and avg(price) > 60: fwd(1)
`, Options{})
	aggs := d.Universe.AggregateFields()
	if len(aggs) != 1 {
		t.Fatalf("aggregate fields = %d, want 1", len(aggs))
	}
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal("GOOGL"))
	m.MustSet("price", spec.IntVal(100))
	if got := d.Eval(m, nil).Key(); got != "fwd()" {
		t.Errorf("zero state eval = %s, want fwd()", got)
	}
	st := subscription.MapState{aggs[0].Key(): 61}
	if got := d.Eval(m, st).Key(); got != "fwd(1)" {
		t.Errorf("avg=61 eval = %s, want fwd(1)", got)
	}
}

func TestTrueFilter(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, `
true: fwd(9)
price > 10: fwd(1)
`, Options{})
	m := spec.NewMessage(sp)
	m.MustSet("price", spec.IntVal(5))
	if got := d.Eval(m, nil).Key(); got != "fwd(9)" {
		t.Errorf("eval = %s, want fwd(9)", got)
	}
	m.MustSet("price", spec.IntVal(50))
	if got := d.Eval(m, nil).Key(); got != "fwd(1,9)" {
		t.Errorf("eval = %s, want fwd(1,9)", got)
	}
}

// randomRules generates a random workload mixing relations, fields and
// overlapping constants.
func randomRules(r *rand.Rand, sp *spec.Spec, n int) []*subscription.Rule {
	p := subscription.NewParser(sp)
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	rels := []string{"==", "!=", "<", "<=", ">", ">="}
	var rules []*subscription.Rule
	for i := 0; i < n; i++ {
		var terms []string
		for _, f := range []string{"shares", "price"} {
			if r.Intn(2) == 0 {
				terms = append(terms, fmt.Sprintf("%s %s %d", f, rels[r.Intn(len(rels))], r.Intn(8)))
			}
		}
		if r.Intn(2) == 0 {
			op := "=="
			if r.Intn(4) == 0 {
				op = "!="
			}
			terms = append(terms, fmt.Sprintf("stock %s %s", op, stocks[r.Intn(len(stocks))]))
		}
		if len(terms) == 0 {
			terms = append(terms, fmt.Sprintf("price > %d", r.Intn(8)))
		}
		join := " and "
		if r.Intn(3) == 0 {
			join = " or "
		}
		src := fmt.Sprintf("%s: fwd(%d)", strings.Join(terms, join), r.Intn(6))
		rule, err := p.ParseRule(src, i)
		if err != nil {
			panic(err)
		}
		rules = append(rules, rule)
	}
	return rules
}

func randomMessage(r *rand.Rand, sp *spec.Spec) *spec.Message {
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB", "ZZZ"}
	m := spec.NewMessage(sp)
	m.MustSet("shares", spec.IntVal(int64(r.Intn(10))))
	m.MustSet("price", spec.IntVal(int64(r.Intn(10))))
	m.MustSet("stock", spec.StrVal(stocks[r.Intn(len(stocks))]))
	m.MustSet("name", spec.StrVal("x"))
	return m
}

// TestSemanticEquivalence is the central correctness property: for random
// rule sets and random messages, BDD evaluation equals brute-force rule
// evaluation — with pruning, without pruning, and under every field-order
// heuristic.
func TestSemanticEquivalence(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		rules := randomRules(r, sp, 1+r.Intn(12))
		for _, opts := range []Options{
			{},
			{DisablePruning: true},
			{Order: SpecOrder},
			{Order: ReverseSpecOrder},
		} {
			d, err := buildRules(sp, rules, opts)
			if err != nil {
				t.Fatalf("build(%+v): %v", opts, err)
			}
			for i := 0; i < 40; i++ {
				m := randomMessage(r, sp)
				want := subscription.MatchActions(rules, m, nil).Key()
				got := d.Eval(m, nil).Key()
				if got != want {
					t.Fatalf("trial %d opts %+v: eval mismatch on %s:\n got  %s\n want %s\nrules:\n%s",
						trial, opts, m, got, want, rulesString(rules))
				}
			}
		}
	}
}

// TestPruningReducesNodes: context-sensitive pruning can occasionally
// specialize nodes (trading sharing for dead-path removal), but in
// aggregate over related-range workloads it must shrink the diagrams —
// its purpose is bounding In→Out paths, which the compiler tests verify
// directly.
func TestPruningReducesNodes(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(99))
	totalPruned, totalUnpruned := 0, 0
	shrunk := 0
	for trial := 0; trial < 30; trial++ {
		rules := randomRules(r, sp, 10)
		pruned, err := buildRules(sp, rules, Options{})
		if err != nil {
			t.Fatal(err)
		}
		unpruned, err := buildRules(sp, rules, Options{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		pn, un := pruned.Stats().Nodes, unpruned.Stats().Nodes
		totalPruned += pn
		totalUnpruned += un
		if pn < un {
			shrunk++
		}
	}
	if totalPruned > totalUnpruned {
		t.Errorf("pruning grew aggregate node count: %d > %d", totalPruned, totalUnpruned)
	}
	if shrunk == 0 {
		t.Error("pruning never shrank any BDD across 30 random workloads")
	}
}

func rulesString(rules []*subscription.Rule) string {
	var b strings.Builder
	for _, r := range rules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

func TestDotOutput(t *testing.T) {
	sp := testSpec(t)
	d := build(t, sp, "price > 10: fwd(1)", Options{})
	dot := d.Dot()
	for _, want := range []string{"digraph", "price", "fwd(1)", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot() missing %q", want)
		}
	}
}

// TestSharedChains: rules sharing a common suffix of constraints must
// share BDD structure (node count grows sublinearly vs. the naive chain
// total).
func TestSharedChains(t *testing.T) {
	sp := testSpec(t)
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "shares == %d and stock == GOOGL and price > 50: fwd(1)\n", i)
	}
	d := build(t, sp, b.String(), Options{})
	s := d.Stats()
	// 50 shares predicates + 1 stock + 1 price = 52 internal nodes if
	// suffixes are perfectly shared.
	if s.Internal > 60 {
		t.Errorf("suffix sharing failed: %d internal nodes", s.Internal)
	}
}

func BenchmarkBuild1000Rules(b *testing.B) {
	sp := testSpec(b)
	r := rand.New(rand.NewSource(5))
	rules := randomRules(r, sp, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildRules(sp, rules, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEval(b *testing.B) {
	sp := testSpec(b)
	r := rand.New(rand.NewSource(5))
	rules := randomRules(r, sp, 1000)
	d, err := buildRules(sp, rules, Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := randomMessage(r, sp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Eval(m, nil)
	}
}

package subscription

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"camus/internal/spec"
)

func mustFilter(t *testing.T, src string) Expr {
	t.Helper()
	e, err := NewParser(spec.MustParse("test", testSpecSrc)).ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	return e
}

func TestNormalizeShapes(t *testing.T) {
	cases := []struct {
		src   string
		conjs int
		atoms []int // atoms per conjunction
	}{
		{"price > 50", 1, []int{1}},
		{"price > 50 and stock == GOOGL", 1, []int{2}},
		{"price > 50 or stock == GOOGL", 2, []int{1, 1}},
		{"(price > 1 or price > 2) and (shares > 3 or shares > 4)", 4, []int{2, 2, 2, 2}},
		{"not (price > 10 and shares < 20)", 2, []int{1, 1}},
		{"not (price > 10 or shares < 20)", 1, []int{2}},
		{"price > 10 and price > 10", 1, []int{1}},  // dedup
		{"price > 10 and not (price > 10)", 0, nil}, // contradiction
		{"true", 1, []int{0}},                       // constant true
		{"false", 0, nil},                           // constant false
		{"price > 5 or true", 1, []int{0}},          // absorbed by true
		{"false or price > 5", 1, []int{1}},         // false disjunct dropped
		{"price > 5 and false", 0, nil},             // false conjunct kills
		{"price > 1 or price > 1", 1, []int{1}},     // dup disjunct
		{"not (not (price > 1))", 1, []int{1}},      // double negation
		{"not true", 0, nil},                        // ¬true = false
		{"price > 10 and (stock == A or stock == B)", 2, []int{2, 2}},
		// An aggregate's contradiction is kept: its register update is owed.
		{"avg(price) > 10 and not (avg(price) > 10)", 1, []int{2}},
	}
	for _, tc := range cases {
		e := mustFilter(t, tc.src)
		conjs, err := Normalize(e)
		if err != nil {
			t.Errorf("Normalize(%q): %v", tc.src, err)
			continue
		}
		if len(conjs) != tc.conjs {
			t.Errorf("Normalize(%q) = %d conjunctions, want %d: %v", tc.src, len(conjs), tc.conjs, conjs)
			continue
		}
		for i, c := range conjs {
			if len(c) != tc.atoms[i] {
				t.Errorf("Normalize(%q) conj %d has %d atoms, want %d", tc.src, i, len(c), tc.atoms[i])
			}
		}
	}
}

func TestNormalizeRejectsNegatedPrefix(t *testing.T) {
	e := mustFilter(t, "not (name prefix \"x\")")
	if _, err := Normalize(e); err == nil {
		t.Error("negated prefix should fail normalization")
	}
}

func TestNormalizeRule(t *testing.T) {
	p := NewParser(spec.MustParse("test", testSpecSrc))
	r, err := p.ParseRule("price > 5 or shares < 3: fwd(2)", 9)
	if err != nil {
		t.Fatal(err)
	}
	nrs, err := NormalizeRule(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(nrs) != 2 {
		t.Fatalf("got %d normalized rules, want 2", len(nrs))
	}
	for _, nr := range nrs {
		if nr.RuleID != 9 || !nr.Action.IsFwd() || nr.Action.Ports[0] != 2 {
			t.Errorf("normalized rule = %+v", nr)
		}
	}
}

// randomExpr builds a random negation-bearing expression over small
// integer fields so normalization equivalence can be checked exhaustively
// on the value domain.
func randomExpr(r *rand.Rand, sp *spec.Spec, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		fields := []string{"price", "shares"}
		f, _ := sp.Field(fields[r.Intn(len(fields))])
		rels := []Relation{EQ, NE, LT, LE, GT, GE}
		return &Atom{
			Ref:   FieldRef{Kind: PacketRef, Field: f},
			Rel:   rels[r.Intn(len(rels))],
			Const: spec.IntVal(int64(r.Intn(6))),
		}
	}
	switch r.Intn(3) {
	case 0:
		return &And{Terms: []Expr{randomExpr(r, sp, depth-1), randomExpr(r, sp, depth-1)}}
	case 1:
		return &Or{Terms: []Expr{randomExpr(r, sp, depth-1), randomExpr(r, sp, depth-1)}}
	default:
		return &Not{Term: randomExpr(r, sp, depth-1)}
	}
}

// TestNormalizePreservesSemantics: for random expressions and all small
// (price, shares) value pairs, DNF evaluation must equal direct
// evaluation. This is invariant "DNF normalization" from DESIGN.md §6.
func TestNormalizePreservesSemantics(t *testing.T) {
	sp := spec.MustParse("test", testSpecSrc)
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(r, sp, 4)
		conjs, err := Normalize(e)
		if err != nil {
			t.Fatalf("Normalize: %v", err)
		}
		for price := int64(0); price < 7; price++ {
			for shares := int64(0); shares < 7; shares++ {
				m := spec.NewMessage(sp)
				m.MustSet("price", spec.IntVal(price))
				m.MustSet("shares", spec.IntVal(shares))
				want := EvalExpr(e, m, nil)
				got := false
				for _, c := range conjs {
					if EvalConjunction(c, m, nil) {
						got = true
						break
					}
				}
				if got != want {
					t.Fatalf("trial %d: DNF mismatch for %s at price=%d shares=%d: dnf=%v direct=%v (conjs=%v)",
						trial, e, price, shares, got, want, conjs)
				}
			}
		}
	}
}

// TestActionSetProperties uses testing/quick to check ActionSet merging is
// commutative, idempotent, and keeps ports sorted/deduplicated.
func TestActionSetProperties(t *testing.T) {
	f := func(ports []uint8, ports2 []uint8) bool {
		var a, b ActionSet
		for _, p := range ports {
			a.Add(FwdAction(int(p)))
		}
		for _, p := range ports2 {
			b.Add(FwdAction(int(p)))
		}
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		abb := ab.Clone()
		abb.Merge(b)
		if !abb.Equal(ab) { // idempotent
			return false
		}
		for i := 1; i < len(ab.Ports); i++ {
			if ab.Ports[i-1] >= ab.Ports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestActionSetUnformatted holds the three operations that format nothing
// to their formatted definitions, over random pairs of sets: Merge is the
// sorted, deduplicated union (of ports and of custom actions by Key) in
// storage of its own, Equal is Key() == Key(), and Equal sets Hash alike.
// The custom pool has two actions of one Key and different structure.
func TestActionSetUnformatted(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	customs := []Action{
		{Name: "answerDNS", Args: []string{"10.0.0.1"}},
		{Name: "answerDNS", Args: []string{"10.0.0.2"}},
		{Name: "mirror", Args: []string{"a", "b"}},
		{Name: "mirror", Args: []string{"a,b"}}, // Key "mirror(a,b)", like the one above
		{Name: "mirror"},
	}
	randomSet := func() ActionSet {
		var s ActionSet
		for n := r.Intn(8); n > 0; n-- {
			s.Add(FwdAction(r.Intn(12)))
		}
		for n := r.Intn(3) * r.Intn(2); n > 0; n-- {
			s.Add(customs[r.Intn(len(customs))])
		}
		return s
	}
	for trial := 0; trial < 3000; trial++ {
		a, b := randomSet(), randomSet()
		if r.Intn(4) == 0 {
			b = a.Clone()
			if len(b.Custom) > 0 && b.Custom[0].Name == "mirror" && len(b.Custom[0].Args) > 0 {
				b.Custom[0] = customs[2+r.Intn(2)]
			}
		}
		if got, want := a.Equal(b), a.Key() == b.Key(); got != want {
			t.Fatalf("trial %d: %s Equal %s = %v, Key equality %v", trial, a, b, got, want)
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("trial %d: equal sets %s and %s hash %x and %x", trial, a, b, a.Hash(), b.Hash())
		}

		ports := make(map[int]bool)
		keys := make(map[string]bool)
		for _, s := range []ActionSet{a, b} {
			for _, p := range s.Ports {
				ports[p] = true
			}
			for _, c := range s.Custom {
				keys[c.Key()] = true
			}
		}
		aKey, bKey := a.Key(), b.Key()
		m := a.Clone()
		m.Merge(b)
		if len(m.Ports) != len(ports) || len(m.Custom) != len(keys) {
			t.Fatalf("trial %d: %s merged with %s = %s: want %d ports, %d custom actions", trial, a, b, m, len(ports), len(keys))
		}
		for i, p := range m.Ports {
			if !ports[p] || (i > 0 && m.Ports[i-1] >= p) {
				t.Fatalf("trial %d: merged ports %v are not the sorted union of %v and %v", trial, m.Ports, a.Ports, b.Ports)
			}
		}
		for i, c := range m.Custom {
			if !keys[c.Key()] || (i > 0 && m.Custom[i-1].Key() >= c.Key()) {
				t.Fatalf("trial %d: merged custom actions %v are not the sorted union", trial, m.Custom)
			}
		}
		// The merge wrote to neither input, and shares no port storage
		// with b.
		for i := range m.Ports {
			m.Ports[i] = -1
		}
		if a.Key() != aKey || b.Key() != bKey {
			t.Fatalf("trial %d: Merge changed an input", trial)
		}
	}
}

func TestActionSetCustom(t *testing.T) {
	var s ActionSet
	s.Add(Action{Name: "answerDNS", Args: []string{"10.0.0.1"}})
	s.Add(Action{Name: "answerDNS", Args: []string{"10.0.0.1"}})
	s.Add(FwdAction(3, 1))
	if len(s.Custom) != 1 {
		t.Errorf("custom dedup failed: %v", s.Custom)
	}
	if s.IsEmpty() {
		t.Error("set with actions is empty")
	}
	if got, want := s.Key(), "fwd(1,3);answerDNS(10.0.0.1)"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	var empty ActionSet
	if !empty.IsEmpty() {
		t.Error("empty set not empty")
	}
}

func TestMatchActions(t *testing.T) {
	sp := spec.MustParse("test", testSpecSrc)
	p := NewParser(sp)
	rules, err := p.ParseRules(`
stock == GOOGL and price > 50: fwd(1)
stock == GOOGL: fwd(2)
price < 10: fwd(3)
`)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal("GOOGL"))
	m.MustSet("price", spec.IntVal(60))
	set := MatchActions(rules, m, nil)
	if got := set.Key(); got != "fwd(1,2)" {
		t.Errorf("actions = %s, want fwd(1,2)", got)
	}
	m2 := spec.NewMessage(sp)
	m2.MustSet("stock", spec.StrVal("MSFT"))
	m2.MustSet("price", spec.IntVal(5))
	if got := MatchActions(rules, m2, nil).Key(); got != "fwd(3)" {
		t.Errorf("actions = %s, want fwd(3)", got)
	}
}

func TestEvalAbsentField(t *testing.T) {
	sp := spec.MustParse("test", testSpecSrc)
	p := NewParser(sp)
	e, err := p.ParseFilter("price > 5")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(sp) // price absent
	if EvalExpr(e, m, nil) {
		t.Error("constraint on absent field matched")
	}
	ne, _ := p.ParseFilter("price != 5")
	if EvalExpr(ne, m, nil) {
		t.Error("!= on absent field matched")
	}
}

func TestEvalAggregates(t *testing.T) {
	sp := spec.MustParse("test", testSpecSrc)
	p := NewParser(sp)
	e, err := p.ParseFilter("stock == GOOGL and avg(price) > 60")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal("GOOGL"))
	m.MustSet("price", spec.IntVal(100))
	if EvalExpr(e, m, nil) {
		t.Error("nil state should read aggregate as 0")
	}
	key := ""
	// Find the aggregate key from the expression.
	for _, term := range e.(*And).Terms {
		if a := term.(*Atom); a.Ref.Kind == AggregateRef {
			key = a.Ref.Key()
		}
	}
	st := MapState{key: 61}
	if !EvalExpr(e, m, st) {
		t.Error("aggregate 61 > 60 should match")
	}
}

func TestCompareStringPrefix(t *testing.T) {
	if !Compare(spec.StrVal("video/cats"), PREFIX, spec.StrVal("video/")) {
		t.Error("prefix should match")
	}
	if Compare(spec.StrVal("audio/x"), PREFIX, spec.StrVal("video/")) {
		t.Error("prefix should not match")
	}
	if Compare(spec.IntVal(5), PREFIX, spec.StrVal("5")) {
		t.Error("cross-kind compare should be false")
	}
}

// TestNormalizePanicsUnreachable: normalization's two panics — distribute
// on a node pushNot leaves behind, and Relation.Negate of a relation
// without a complement — are out of reach of any filter the parser
// accepts. Expr is sealed to the parser's five node kinds, and pushNot
// removes every Not and returns an error, not a node, for anything else;
// it negates only relations canNegate admits, and the parser produces no
// relation outside the seven. Every pairing of the atoms below, under
// every connective and negation, normalizes or fails with an error.
func TestNormalizePanicsUnreachable(t *testing.T) {
	atoms := []string{"true", "false", "my_counter > 7"}
	for _, rel := range []string{"==", "!=", "<", "<=", ">", ">="} {
		atoms = append(atoms, "price "+rel+" 7")
	}
	for _, rel := range []string{"==", "!=", "prefix"} {
		atoms = append(atoms, "name "+rel+" AB")
	}
	forms := []string{"%s and %s", "%s or %s", "not (%s and %s)", "not (%s or %s)",
		"not (not (%s) or (%s and true))", "(%s or false) and not (%s)"}
	p := NewParser(spec.MustParse("test", testSpecSrc))
	for _, a := range atoms {
		for _, b := range atoms {
			for _, form := range forms {
				src := fmt.Sprintf(form, a, b)
				e, err := p.ParseFilter(src)
				if err != nil {
					t.Fatalf("ParseFilter(%q): %v", src, err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("Normalize(%q) panicked: %v", src, r)
						}
					}()
					if _, err := Normalize(e); err != nil && !strings.Contains(err.Error(), "cannot negate prefix") {
						t.Errorf("Normalize(%q): %v", src, err)
					}
				}()
			}
		}
	}
}

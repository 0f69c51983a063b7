package match

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"camus/internal/spec"
	"camus/internal/subscription"
)

func iv(v int64) spec.Value  { return spec.IntVal(v) }
func sv(s string) spec.Value { return spec.StrVal(s) }

func TestIntRefinement(t *testing.T) {
	c := New(spec.IntField)
	c = c.With(subscription.GT, iv(10), true)  // v > 10
	c = c.With(subscription.LT, iv(20), true)  // v < 20
	c = c.With(subscription.EQ, iv(15), false) // v != 15
	for v, want := range map[int64]bool{10: false, 11: true, 15: false, 19: true, 20: false} {
		if got := c.Matches(iv(v)); got != want {
			t.Errorf("Matches(%d) = %v, want %v", v, got, want)
		}
	}
	if _, ok := c.Exact(); ok {
		t.Error("interval should not be exact")
	}
}

func TestIntImplication(t *testing.T) {
	c := New(spec.IntField).With(subscription.GT, iv(50), true) // v > 50
	cases := []struct {
		rel  subscription.Relation
		v    int64
		want Tri
	}{
		{subscription.GT, 40, True}, // v>50 ⇒ v>40
		{subscription.GT, 60, Unknown},
		{subscription.LT, 50, False}, // v>50 ⇒ ¬(v<50)
		{subscription.LT, 51, False}, // v>50 ⇒ v>=51 ⇒ ¬(v<51)
		{subscription.EQ, 30, False},
		{subscription.EQ, 60, Unknown},
	}
	for _, tc := range cases {
		if got := c.Implies(tc.rel, iv(tc.v)); got != tc.want {
			t.Errorf("(v>50).Implies(%s %d) = %v, want %v", tc.rel, tc.v, got, tc.want)
		}
	}
}

func TestIntBoundaryExclusions(t *testing.T) {
	// [5,7] with 5 and 7 excluded collapses to the singleton 6.
	c := New(spec.IntField)
	c = c.With(subscription.GT, iv(4), true)
	c = c.With(subscription.LT, iv(8), true)
	c = c.With(subscription.EQ, iv(5), false)
	c = c.With(subscription.EQ, iv(7), false)
	v, ok := c.Exact()
	if !ok || v.Int != 6 {
		t.Fatalf("Exact() = %v,%v want 6,true", v, ok)
	}
	if got := c.Implies(subscription.EQ, iv(6)); got != True {
		t.Errorf("singleton Implies(EQ 6) = %v, want True", got)
	}
}

func TestIntEquality(t *testing.T) {
	c := New(spec.IntField).With(subscription.EQ, iv(42), true)
	v, ok := c.Exact()
	if !ok || v.Int != 42 {
		t.Fatalf("Exact = %v %v", v, ok)
	}
	if c.Implies(subscription.GT, iv(41)) != True || c.Implies(subscription.LT, iv(42)) != False {
		t.Error("singleton implications wrong")
	}
	if c.TCAMEntries(32) != 1 {
		t.Errorf("exact TCAM entries = %d", c.TCAMEntries(32))
	}
}

func TestRangePrefixCount(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		bits   int
		want   int
	}{
		{0, 255, 8, 1}, // full domain: one wildcard
		{0, 127, 8, 1}, // aligned half
		{1, 255, 8, 8}, // classic worst-ish case
		{5, 5, 8, 1},   // point
		{4, 7, 8, 1},   // aligned block
		{1, 6, 8, 4},   // 1, 2-3, 4-5, 6
	}
	for _, tc := range cases {
		if got := rangePrefixCount(tc.lo, tc.hi, tc.bits); got != tc.want {
			t.Errorf("rangePrefixCount(%d,%d,%d) = %d, want %d", tc.lo, tc.hi, tc.bits, got, tc.want)
		}
	}
}

func TestIntTCAMWithExclusions(t *testing.T) {
	c := New(spec.IntField)
	c = c.With(subscription.GT, iv(-1), true) // v >= 0
	c = c.With(subscription.LT, iv(8), true)  // v < 8 → [0,7]
	if got := c.TCAMEntries(8); got != 1 {
		t.Fatalf("[0,7] = %d entries, want 1", got)
	}
	c = c.With(subscription.EQ, iv(4), false) // [0,3] ∪ [5,7]
	if got := c.TCAMEntries(8); got != 1+2 {
		t.Errorf("[0,3]∪[5,7] = %d entries, want 3", got)
	}
}

func TestStrConstraint(t *testing.T) {
	c := New(spec.StringField)
	c = c.With(subscription.PREFIX, sv("video/"), true)
	if c.Implies(subscription.PREFIX, sv("vid")) != True {
		t.Error("required video/ should imply prefix vid")
	}
	if c.Implies(subscription.PREFIX, sv("audio/")) != False {
		t.Error("required video/ should refute prefix audio/")
	}
	if c.Implies(subscription.EQ, sv("audio/x")) != False {
		t.Error("required video/ should refute == audio/x")
	}
	if c.Implies(subscription.EQ, sv("video/x")) != Unknown {
		t.Error("== video/x should be unknown")
	}
	if !c.Matches(sv("video/cats")) || c.Matches(sv("audio/x")) {
		t.Error("Matches wrong for prefix constraint")
	}

	c2 := c.With(subscription.EQ, sv("video/cats"), true)
	if v, ok := c2.Exact(); !ok || v.Str != "video/cats" {
		t.Errorf("Exact = %v %v", v, ok)
	}
	if c2.Implies(subscription.PREFIX, sv("video/c")) != True {
		t.Error("known value should decide prefix")
	}

	c3 := c.With(subscription.PREFIX, sv("video/cats/"), false)
	if c3.Matches(sv("video/cats/tom")) {
		t.Error("excluded prefix still matches")
	}
	if c3.Implies(subscription.PREFIX, sv("video/cats/t")) != False {
		t.Error("excluded prefix should refute longer prefix")
	}
	if !c3.Matches(sv("video/dogs")) {
		t.Error("unrelated value should match")
	}
}

func TestStrExclusions(t *testing.T) {
	c := New(spec.StringField)
	c = c.With(subscription.EQ, sv("GOOGL"), false)
	if c.Matches(sv("GOOGL")) {
		t.Error("excluded value matches")
	}
	if !c.Matches(sv("MSFT")) {
		t.Error("other value should match")
	}
	if c.Implies(subscription.EQ, sv("GOOGL")) != False {
		t.Error("excluded value should be implied false")
	}
}

// TestConstraintSoundness: refining with a predicate outcome must keep
// exactly the values consistent with that outcome (random walk property).
func TestConstraintSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rels := []subscription.Relation{subscription.EQ, subscription.LT, subscription.GT}
	for trial := 0; trial < 300; trial++ {
		c := New(spec.IntField)
		type step struct {
			rel     subscription.Relation
			v       int64
			outcome bool
		}
		var steps []step
		for i := 0; i < 5; i++ {
			s := step{rel: rels[r.Intn(3)], v: int64(r.Intn(10)), outcome: r.Intn(2) == 0}
			// Skip refinements inconsistent with the current constraint —
			// the BDD only refines along non-implied branches.
			imp := c.Implies(s.rel, iv(s.v))
			if imp == True && !s.outcome || imp == False && s.outcome {
				continue
			}
			c = c.With(s.rel, iv(s.v), s.outcome)
			steps = append(steps, s)
		}
		for v := int64(0); v < 10; v++ {
			want := true
			for _, s := range steps {
				var holds bool
				switch s.rel {
				case subscription.EQ:
					holds = v == s.v
				case subscription.LT:
					holds = v < s.v
				case subscription.GT:
					holds = v > s.v
				}
				if holds != s.outcome {
					want = false
					break
				}
			}
			if got := c.Matches(iv(v)); got != want {
				t.Fatalf("trial %d: Matches(%d) = %v, want %v (steps %+v, key %s)",
					trial, v, got, want, steps, c.Key())
			}
		}
	}
}

// TestImpliesConsistentWithMatches via testing/quick: whenever Implies
// returns True every matching value satisfies the predicate, and whenever
// False no matching value does.
func TestImpliesConsistentWithMatches(t *testing.T) {
	f := func(loSeed, hiSeed uint8, pv uint8, relSeed uint8) bool {
		lo, hi := int64(loSeed%16), int64(hiSeed%16)
		if lo > hi {
			lo, hi = hi, lo
		}
		c := New(spec.IntField)
		c = c.With(subscription.GT, iv(lo-1), true)
		c = c.With(subscription.LT, iv(hi+1), true)
		rels := []subscription.Relation{subscription.EQ, subscription.LT, subscription.GT}
		rel := rels[int(relSeed)%3]
		p := iv(int64(pv % 16))
		imp := c.Implies(rel, p)
		for v := int64(0); v < 16; v++ {
			if !c.Matches(iv(v)) {
				continue
			}
			holds := subscription.Compare(iv(v), rel, p)
			if imp == True && !holds {
				return false
			}
			if imp == False && holds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyCanonical(t *testing.T) {
	a := New(spec.IntField).With(subscription.GT, iv(5), true).With(subscription.LT, iv(10), true)
	b := New(spec.IntField).With(subscription.LT, iv(10), true).With(subscription.GT, iv(5), true)
	if a.Key() != b.Key() {
		t.Errorf("order-dependent keys: %s vs %s", a.Key(), b.Key())
	}
}

// TestHashEqualFollowKey: Equal is Key equality without the string, Hash
// agrees with it, and With hands back its receiver exactly when the
// refinement left the Key unchanged — over random refinement walks of
// both constraint kinds, long enough to fill the exclusion lists.
func TestHashEqualFollowKey(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	step := func(c Constraint, str bool) Constraint {
		outcome := r.Intn(4) == 0
		if str {
			rel := []subscription.Relation{subscription.EQ, subscription.EQ, subscription.PREFIX}[r.Intn(3)]
			return c.With(rel, sv(fmt.Sprintf("S%02d", r.Intn(48))[:1+r.Intn(3)]), outcome)
		}
		rel := []subscription.Relation{subscription.EQ, subscription.EQ, subscription.LT, subscription.GT}[r.Intn(4)]
		return c.With(rel, iv(int64(r.Intn(60))), outcome)
	}
	for _, str := range []bool{false, true} {
		var seen []Constraint
		for trial := 0; trial < 60; trial++ {
			c := New(spec.IntField)
			if str {
				c = New(spec.StringField)
			}
			for i := 0; i < 50; i++ {
				next := step(c, str)
				if same := next.Key() == c.Key(); same != (next == c) {
					t.Fatalf("With returned receiver=%v but key %s -> %s", next == c, c.Key(), next.Key())
				}
				c = next
				seen = append(seen, c)
			}
		}
		for _, a := range seen[:400] {
			for _, b := range seen {
				eq := a.Key() == b.Key()
				if a.Equal(b) != eq {
					t.Fatalf("Equal(%s, %s) = %v", a.Key(), b.Key(), !eq)
				}
				if eq && a.Hash() != b.Hash() {
					t.Fatalf("equal constraints %s hash apart", a.Key())
				}
			}
		}
	}
	if New(spec.IntField).Equal(New(spec.StringField)) {
		t.Error("constraints of different kinds compare equal")
	}
}

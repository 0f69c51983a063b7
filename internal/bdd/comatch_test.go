package bdd

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"camus/internal/subscription"
)

// TestCoMatch: over seeded rules and messages, the rules whose normalized
// conjunctions EvalConjunction says match a message are the rule set of
// the terminal the message's walk reaches, and CoMatch returns exactly the
// reachable terminals' nonempty rule sets. A merge past MaxNodes is
// ErrTooLarge.
func TestCoMatch(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		var nrs []subscription.NormalizedRule
		for _, rule := range randomRules(r, sp, 1+r.Intn(12)) {
			n, err := subscription.NormalizeRule(rule)
			if err != nil {
				t.Fatal(err)
			}
			nrs = append(nrs, n...)
		}
		for _, opts := range []Options{{}, {Order: SpecOrder}, {Order: ReverseSpecOrder}} {
			d, err := coMatchDiagram(sp, nrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			var terminals [][]int
			for _, n := range d.Reachable() {
				if n.IsTerminal() && len(n.Actions.Ports) > 0 {
					terminals = append(terminals, n.Actions.Ports)
				}
			}
			sets, err := CoMatch(sp, nrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(sets, terminals, slices.Equal) {
				t.Fatalf("trial %d %+v: CoMatch %v, reachable terminals %v", trial, opts, sets, terminals)
			}
			for i := 0; i < 40; i++ {
				m := randomMessage(r, sp)
				var want []int
				for _, nr := range nrs {
					if subscription.EvalConjunction(nr.Conj, m, nil) && !slices.Contains(want, nr.RuleID) {
						want = append(want, nr.RuleID)
					}
				}
				slices.Sort(want)
				if got := d.Eval(m, nil).Ports; !slices.Equal(got, want) {
					t.Fatalf("trial %d %+v: %s reaches the terminal of rules %v, EvalConjunction matches %v", trial, opts, m, got, want)
				}
			}
		}
	}
	nrs := normalize(t, sp, "price > 1 and shares > 2: fwd(1)", 0)
	if _, err := CoMatch(sp, nrs, Options{MaxNodes: 2}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("CoMatch past MaxNodes: err = %v, want ErrTooLarge", err)
	}
}

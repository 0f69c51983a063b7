package bdd

import (
	"camus/internal/spec"
	"camus/internal/subscription"
)

// CoMatch answers which rules match together: it merges rules into one
// diagram and returns, for each reachable terminal that some rule
// reaches, the IDs of the rules that match there, ascending, in
// Reachable's order. The rules' actions are ignored: each disjunct is
// tagged fwd(RuleID), so a terminal's port set — the §V-D merge's
// sorted, deduplicated union — is its rule set. With pruning (the
// default) every root-to-terminal path is satisfiable, so a rule that
// reaches no terminal matches no message. A merge past opts.MaxNodes
// returns ErrTooLarge.
func CoMatch(sp *spec.Spec, rules []subscription.NormalizedRule, opts Options) ([][]int, error) {
	d, err := coMatchDiagram(sp, rules, opts)
	if err != nil {
		return nil, err
	}
	var sets [][]int
	for _, n := range d.Reachable() {
		if n.IsTerminal() && len(n.Actions.Ports) > 0 {
			sets = append(sets, n.Actions.Ports)
		}
	}
	return sets, nil
}

// coMatchDiagram merges rules, each disjunct tagged fwd(RuleID).
func coMatchDiagram(sp *spec.Spec, rules []subscription.NormalizedRule, opts Options) (*BDD, error) {
	tagged := make([]subscription.NormalizedRule, len(rules))
	ids := make([]int, len(rules))
	for i, nr := range rules {
		ids[i], tagged[i] = nr.RuleID, nr
		tagged[i].Action = subscription.Action{Name: "fwd", Ports: ids[i : i+1 : i+1]}
	}
	e := NewEngine(sp, opts)
	if err := e.Add(tagged...); err != nil {
		return nil, err
	}
	return e.Merge()
}

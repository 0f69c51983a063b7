package prove

import (
	"fmt"
	"slices"
	"strings"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// ---------------------------------------------------------------------
// The prover's own denotational semantics for the subscription AST:
// its own relation vocabulary, its own DNF, its own last-hop stateful
// erasure, and its own concrete evaluator. Only the AST node types and
// the spec are shared with the compilation path.
// ---------------------------------------------------------------------

// relOp is the prover's comparison vocabulary.
type relOp int

const (
	relEQ relOp = iota
	relNE
	relLT
	relLE
	relGT
	relGE
	relPREFIX
)

func relOf(r subscription.Relation) (relOp, error) {
	switch r {
	case subscription.EQ:
		return relEQ, nil
	case subscription.NE:
		return relNE, nil
	case subscription.LT:
		return relLT, nil
	case subscription.LE:
		return relLE, nil
	case subscription.GT:
		return relGT, nil
	case subscription.GE:
		return relGE, nil
	case subscription.PREFIX:
		return relPREFIX, nil
	default:
		return 0, fmt.Errorf("prove: unknown relation %v", r)
	}
}

// negate returns the complementary relation; PREFIX has none.
func (r relOp) negate() (relOp, error) {
	switch r {
	case relEQ:
		return relNE, nil
	case relNE:
		return relEQ, nil
	case relLT:
		return relGE, nil
	case relLE:
		return relGT, nil
	case relGT:
		return relLE, nil
	case relGE:
		return relLT, nil
	default:
		return 0, fmt.Errorf("prove: prefix constraints cannot be negated")
	}
}

// atom is one atomic constraint in the prover's vocabulary.
type atom struct {
	ref subscription.FieldRef
	rel relOp
	c   spec.Value
}

// conj is a conjunction of atoms.
type conj []atom

// maxDisjuncts bounds the prover's DNF; beyond it Check reports the
// filter as un-analyzable rather than looping.
const maxDisjuncts = 1 << 14

// dnf is the prover's own disjunctive-normal-form normalization:
// negation pushed to atoms, conjunction distributed over disjunction.
// An empty result is the unsatisfiable filter; a result holding one
// empty conjunction is the constant-true filter.
func dnf(e subscription.Expr, neg bool) ([]conj, error) {
	switch n := e.(type) {
	case *subscription.Bool:
		if n.Value != neg {
			return []conj{{}}, nil
		}
		return nil, nil
	case *subscription.Atom:
		rel, err := relOf(n.Rel)
		if err != nil {
			return nil, err
		}
		if neg {
			if rel, err = rel.negate(); err != nil {
				return nil, err
			}
		}
		return []conj{{atom{ref: n.Ref, rel: rel, c: n.Const}}}, nil
	case *subscription.Not:
		return dnf(n.Term, !neg)
	case *subscription.And:
		if neg {
			return dnfUnion(n.Terms, true)
		}
		return dnfCross(n.Terms, false)
	case *subscription.Or:
		if neg {
			return dnfCross(n.Terms, true)
		}
		return dnfUnion(n.Terms, false)
	default:
		return nil, fmt.Errorf("prove: unknown expression node %T", e)
	}
}

func dnfUnion(terms []subscription.Expr, neg bool) ([]conj, error) {
	var out []conj
	for _, t := range terms {
		ds, err := dnf(t, neg)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
		if len(out) > maxDisjuncts {
			return nil, fmt.Errorf("prove: filter normalization exceeds %d disjuncts", maxDisjuncts)
		}
	}
	return out, nil
}

func dnfCross(terms []subscription.Expr, neg bool) ([]conj, error) {
	out := []conj{{}}
	for _, t := range terms {
		ds, err := dnf(t, neg)
		if err != nil {
			return nil, err
		}
		var next []conj
		for _, base := range out {
			for _, d := range ds {
				merged := make(conj, 0, len(base)+len(d))
				merged = append(merged, base...)
				merged = append(merged, d...)
				next = append(next, merged)
			}
		}
		if len(next) > maxDisjuncts {
			return nil, fmt.Errorf("prove: filter normalization exceeds %d disjuncts", maxDisjuncts)
		}
		out = next
	}
	return out, nil
}

// disjunct is one conjunction of a processed rule, with its stateful
// structure made explicit.
type disjunct struct {
	// atoms is the effective conjunction at this switch: for rules not
	// running at their subscribers' last hop, aggregate atoms have been
	// erased (§II: upstream switches forward a superset and only the
	// last hop evaluates state).
	atoms conj
	// stateless is atoms minus aggregate atoms (equal to atoms for
	// erased rules). The register-update obligation is keyed on it: a
	// packet matching the stateless context must update every aggregate
	// in aggKeys, regardless of the stateful predicates' own outcomes.
	stateless conj
	// aggKeys are the aggregate keys this disjunct must update
	// (last-hop rules only; empty for erased rules).
	aggKeys []string
}

// provedRule is one rule in the prover's processed form.
type provedRule struct {
	id        int
	action    subscription.Action
	lastHop   bool
	disjuncts []disjunct
}

// Options configure a Check run. LastHop and LastHopPort mirror the
// compiler options the program was built with: the prover re-derives
// the same per-rule last-hop decision from the documented policy, so a
// compiler that mis-applies its own options is caught.
type Options struct {
	// LastHop marks the program as running on a host-facing switch.
	LastHop bool
	// LastHopPort, when set, refines LastHop per rule: stateful atoms
	// stay active only if every fwd port of the rule is host-facing.
	LastHopPort func(port int) bool
	// MaxPaths bounds each symbolic exploration of the program
	// (default 50000 contexts).
	MaxPaths int
	// MaxContexts bounds each negative-refinement query in the
	// spurious-action check (default 4096 contexts).
	MaxContexts int
}

func (o Options) withDefaults() Options {
	if o.MaxPaths == 0 {
		o.MaxPaths = 50000
	}
	if o.MaxContexts == 0 {
		o.MaxContexts = 4096
	}
	return o
}

// ruleLastHop is the prover's independent statement of the §II policy
// (compare compiler.ruleIsLastHop): a rule evaluates its stateful
// atoms only on the hop immediately before its subscribers.
func ruleLastHop(act subscription.Action, o Options) bool {
	if o.LastHopPort == nil || len(act.Ports) == 0 {
		return o.LastHop
	}
	for _, p := range act.Ports {
		if !o.LastHopPort(p) {
			return false
		}
	}
	return true
}

// validityAtom is the prover's valid(header) == 1 constraint.
func validityAtom(header string) atom {
	return atom{
		ref: subscription.FieldRef{Kind: subscription.ValidityRef, Header: header},
		rel: relEQ,
		c:   spec.IntVal(1),
	}
}

// processRules normalizes and last-hop-processes a rule set into the
// prover's form.
//
// §VI policy: a rule never matches a packet lacking a header it reads.
// For packet atoms this already follows from the reference semantics
// (an atom on an absent field is false), but an aggregate atom reads
// the current register, not the packet — the policy still demands the
// aggregated field's header be present, so active (last-hop) aggregate
// atoms get an explicit validity conjunct here. Erasure happens first:
// a rule whose aggregates are erased for this switch keeps no claim on
// their headers.
func processRules(rules []*subscription.Rule, o Options) ([]*provedRule, error) {
	out := make([]*provedRule, 0, len(rules))
	for _, r := range rules {
		ds, err := dnf(r.Filter, false)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", r.ID, err)
		}
		pr := &provedRule{id: r.ID, action: r.Action, lastHop: ruleLastHop(r.Action, o)}
		for _, d := range ds {
			var stateless conj
			var aggKeys []string
			var aggHeaders []string
			for _, at := range d {
				if at.ref.Kind == subscription.AggregateRef {
					aggKeys = append(aggKeys, at.ref.Key())
					if at.ref.Field != nil && !slices.Contains(aggHeaders, at.ref.Field.Header) {
						aggHeaders = append(aggHeaders, at.ref.Field.Header)
					}
				} else {
					stateless = append(stateless, at)
				}
			}
			pd := disjunct{stateless: stateless}
			if pr.lastHop {
				pd.atoms = make(conj, 0, len(aggHeaders)+len(d))
				for _, h := range aggHeaders {
					pd.atoms = append(pd.atoms, validityAtom(h))
				}
				pd.atoms = append(pd.atoms, d...)
				pd.aggKeys = aggKeys
			} else {
				pd.atoms = stateless
			}
			pr.disjuncts = append(pr.disjuncts, pd)
		}
		out = append(out, pr)
	}
	return out, nil
}

// compareVal is the prover's concrete comparison semantics, mirroring
// the language definition: mismatched kinds never compare; strings
// support equality and prefix only; integers support everything but
// prefix.
func compareVal(v spec.Value, rel relOp, c spec.Value) bool {
	if v.Kind != c.Kind {
		return false
	}
	if v.Kind == spec.StringField {
		switch rel {
		case relEQ:
			return v.Str == c.Str
		case relNE:
			return v.Str != c.Str
		case relPREFIX:
			return strings.HasPrefix(v.Str, c.Str)
		default:
			return false
		}
	}
	switch rel {
	case relEQ:
		return v.Int == c.Int
	case relNE:
		return v.Int != c.Int
	case relLT:
		return v.Int < c.Int
	case relLE:
		return v.Int <= c.Int
	case relGT:
		return v.Int > c.Int
	case relGE:
		return v.Int >= c.Int
	default:
		return false
	}
}

// eval evaluates an atom concretely: a constraint on an absent field is
// false regardless of relation.
func (at atom) eval(a *Assignment) bool {
	v, present := a.value(at.ref)
	if !present {
		return false
	}
	return compareVal(v, at.rel, at.c)
}

func (c conj) eval(a *Assignment) bool {
	for _, at := range c {
		if !at.eval(a) {
			return false
		}
	}
	return true
}

// evalRules is the prover's ground truth for an assignment: the merged
// action set of every matching processed rule plus the update keys its
// stateless contexts trigger.
func evalRules(rules []*provedRule, a *Assignment) (subscription.ActionSet, []string) {
	var set subscription.ActionSet
	var updates []string
	for _, r := range rules {
		for _, d := range r.disjuncts {
			if d.atoms.eval(a) {
				set.Add(r.action)
			}
			if len(d.aggKeys) > 0 && d.stateless.eval(a) {
				updates = append(updates, d.aggKeys...)
			}
		}
	}
	slices.Sort(updates)
	return set, slices.Compact(updates)
}

// EvalRules is the exported ground truth: the merged action set and
// update keys the rule set owes an assignment under the same last-hop
// options a Check run would use. Replay harnesses compare it against
// the real pipeline.
func EvalRules(rules []*subscription.Rule, o Options, a *Assignment) (subscription.ActionSet, []string, error) {
	prs, err := processRules(rules, o.withDefaults())
	if err != nil {
		return subscription.ActionSet{}, nil, err
	}
	set, upd := evalRules(prs, a)
	return set, upd, nil
}

package subscription

import (
	"fmt"
	"sort"
	"strings"

	"camus/internal/spec"
)

// Conjunction is a conjunction of atomic constraints. An empty conjunction
// is the constant-true filter.
type Conjunction []*Atom

func (c Conjunction) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " and ")
}

// Key returns a canonical identity for the conjunction: atom keys sorted
// and joined. Two conjunctions with equal keys are semantically identical.
func (c Conjunction) Key() string {
	keys := make([]string, len(c))
	for i, a := range c {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, " && ")
}

// Normalize rewrites a filter into disjunctive normal form: a set of
// independent conjunctions of atomic predicates (paper §V-C: "The
// subscription rules are first normalized into disjunctive form").
// Negation is pushed down to atoms via De Morgan's laws and absorbed into
// the atom relations. The result is deduplicated; conjunctions containing
// a contradictory pair of packet atoms (an atom and its exact negation)
// are dropped. A pair on an aggregate is kept: the rest of the
// conjunction still owes the aggregate's register update, so the BDD
// drops it as it drops any other unsatisfiable conjunction.
//
// An empty, non-nil slice means the filter is unsatisfiable (false); a
// slice containing an empty conjunction means it is constant true.
func Normalize(e Expr) ([]Conjunction, error) {
	pushed, err := pushNot(e, false)
	if err != nil {
		return nil, err
	}
	disj := distribute(pushed)
	out := make([]Conjunction, 0, len(disj))
	// Cross-disjunct dedup only matters for multi-disjunct filters; the
	// common single-conjunction case skips the key computation entirely.
	var seen map[string]bool
	if len(disj) > 1 {
		seen = make(map[string]bool, len(disj))
	}
conj:
	for _, c := range disj {
		// Deduplicate atoms within the conjunction and detect syntactic
		// contradictions (semantic contradictions are the BDD's job).
		// Atom identity is structural (FieldRef, relation, and constant
		// are all comparable), so no string keys are formatted here.
		byIdent := make(map[atomIdent]bool, len(c))
		ordered := make(Conjunction, 0, len(c))
		for _, a := range c {
			id := atomIdent{ref: a.Ref, rel: a.Rel, c: a.Const}
			if byIdent[id] {
				continue
			}
			if canNegate(a.Rel) && a.Ref.Kind != AggregateRef && byIdent[atomIdent{ref: a.Ref, rel: negOf(a.Rel), c: a.Const}] {
				continue conj // contains p and not p
			}
			byIdent[id] = true
			ordered = append(ordered, a)
		}
		if seen != nil {
			key := ordered.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out = append(out, ordered)
	}
	// If any conjunction is empty (true), the whole filter is true.
	for _, c := range out {
		if len(c) == 0 {
			return []Conjunction{{}}, nil
		}
	}
	return out, nil
}

// atomIdent is an Atom's structural identity (every field of FieldRef
// and spec.Value is comparable), the allocation-free equivalent of
// Atom.Key for dedup maps.
type atomIdent struct {
	ref FieldRef
	rel Relation
	c   spec.Value
}

func canNegate(r Relation) bool { return r != PREFIX }

func negOf(r Relation) Relation {
	if !canNegate(r) {
		return r
	}
	return r.Negate()
}

// pushNot pushes negation down to the leaves. neg indicates whether the
// current subtree is under an odd number of negations.
func pushNot(e Expr, neg bool) (Expr, error) {
	switch n := e.(type) {
	case *Bool:
		return &Bool{Value: n.Value != neg}, nil
	case *Atom:
		if !neg {
			return n, nil
		}
		if !canNegate(n.Rel) {
			return nil, fmt.Errorf("subscription: cannot negate prefix constraint %s", n)
		}
		return &Atom{Ref: n.Ref, Rel: n.Rel.Negate(), Const: n.Const}, nil
	case *Not:
		return pushNot(n.Term, !neg)
	case *And:
		terms := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			pt, err := pushNot(t, neg)
			if err != nil {
				return nil, err
			}
			terms[i] = pt
		}
		if neg {
			return &Or{Terms: terms}, nil
		}
		return &And{Terms: terms}, nil
	case *Or:
		terms := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			pt, err := pushNot(t, neg)
			if err != nil {
				return nil, err
			}
			terms[i] = pt
		}
		if neg {
			return &And{Terms: terms}, nil
		}
		return &Or{Terms: terms}, nil
	default:
		return nil, fmt.Errorf("subscription: unknown expression node %T", e)
	}
}

// distribute converts a negation-free expression into a disjunction of
// conjunctions by distributing AND over OR.
func distribute(e Expr) []Conjunction {
	switch n := e.(type) {
	case *Bool:
		if n.Value {
			return []Conjunction{{}}
		}
		return []Conjunction{}
	case *Atom:
		return []Conjunction{{n}}
	case *Or:
		var out []Conjunction
		for _, t := range n.Terms {
			out = append(out, distribute(t)...)
		}
		return out
	case *And:
		acc := []Conjunction{{}}
		for _, t := range n.Terms {
			sub := distribute(t)
			next := make([]Conjunction, 0, len(acc)*len(sub))
			for _, a := range acc {
				for _, b := range sub {
					merged := make(Conjunction, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc
	default:
		panic(fmt.Sprintf("subscription: distribute on %T (normalize first)", e))
	}
}

// NormalizeRule normalizes a rule's filter, returning one (conjunction,
// action) pair per disjunct — the independent rules of §V-C.
func NormalizeRule(r *Rule) ([]NormalizedRule, error) {
	conjs, err := Normalize(r.Filter)
	if err != nil {
		return nil, fmt.Errorf("rule %d: %w", r.ID, err)
	}
	out := make([]NormalizedRule, len(conjs))
	for i, c := range conjs {
		out[i] = NormalizedRule{RuleID: r.ID, Conj: c, Action: r.Action}
	}
	return out, nil
}

// NormalizedRule is one disjunct of a rule: a conjunction plus the rule's
// action.
type NormalizedRule struct {
	RuleID int
	Conj   Conjunction
	Action Action
}

func (n NormalizedRule) String() string {
	return fmt.Sprintf("%s: %s", n.Conj, n.Action)
}

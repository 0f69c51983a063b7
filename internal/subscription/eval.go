package subscription

import (
	"strings"

	"camus/internal/spec"
)

// StateReader supplies the current values of stateful aggregates, keyed by
// FieldRef.Key(). The pipeline runtime implements it with tumbling-window
// registers; tests implement it with maps. A nil StateReader reads every
// aggregate as zero (the reset value of a switch register).
type StateReader interface {
	AggValue(key string) int64
}

// MapState is a simple StateReader backed by a map (zero value usable).
type MapState map[string]int64

// AggValue implements StateReader.
func (m MapState) AggValue(key string) int64 { return m[key] }

// EvalAtom evaluates one atomic constraint against a message. Constraints
// on fields absent from the packet evaluate to false (the packet lacks the
// header the subscription filters on), and so does an aggregate over a
// field whose header the packet lacks: a rule never matches a packet
// without a header it reads (§VI), which is the validity guard every
// compiled program carries. A count aggregate reads no field and has no
// guard.
func EvalAtom(a *Atom, m *spec.Message, st StateReader) bool {
	return evalAtom(a, m, st, false)
}

// evalAtom evaluates a, or its negation when neg is set. A negated atom is
// the atom with the negated relation, as normalization (pushNot) makes
// it, so it too is false on a message without the header it reads.
func evalAtom(a *Atom, m *spec.Message, st StateReader, neg bool) bool {
	var v spec.Value
	switch a.Ref.Kind {
	case PacketRef:
		idx, ok := m.Spec().SubscribableIndex(a.Ref.Field)
		if !ok {
			return false
		}
		v, ok = m.Get(idx)
		if !ok {
			return false
		}
	case AggregateRef:
		if a.Ref.Field != nil && !m.HeaderPresent(a.Ref.Field.Header) {
			return false
		}
		var cur int64
		if st != nil {
			cur = st.AggValue(a.Ref.Key())
		}
		v = spec.IntVal(cur)
	case ValidityRef:
		var bit int64
		if m.HeaderPresent(a.Ref.Header) {
			bit = 1
		}
		v = spec.IntVal(bit)
	}
	return Compare(v, a.Rel, a.Const) != neg
}

// Compare applies a relation between a field value and a constant.
func Compare(v spec.Value, rel Relation, c spec.Value) bool {
	if v.Kind != c.Kind {
		return false
	}
	if v.Kind == spec.StringField {
		switch rel {
		case EQ:
			return v.Str == c.Str
		case NE:
			return v.Str != c.Str
		case PREFIX:
			return strings.HasPrefix(v.Str, c.Str)
		default:
			return false
		}
	}
	switch rel {
	case EQ:
		return v.Int == c.Int
	case NE:
		return v.Int != c.Int
	case LT:
		return v.Int < c.Int
	case LE:
		return v.Int <= c.Int
	case GT:
		return v.Int > c.Int
	case GE:
		return v.Int >= c.Int
	default:
		return false
	}
}

// EvalExpr evaluates a filter expression against a message — the reference
// semantics that the BDD and the compiled pipeline must agree with. A
// negation is evaluated as normalization reads it: pushed down to the
// atoms (De Morgan), where a negated atom is false without its header.
func EvalExpr(e Expr, m *spec.Message, st StateReader) bool {
	return evalExpr(e, m, st, false)
}

// evalExpr evaluates e, or not (e) when neg is set.
func evalExpr(e Expr, m *spec.Message, st StateReader, neg bool) bool {
	switch n := e.(type) {
	case *Bool:
		return n.Value != neg
	case *Atom:
		return evalAtom(n, m, st, neg)
	case *Not:
		return evalExpr(n.Term, m, st, !neg)
	case *And:
		return evalTerms(n.Terms, m, st, neg, !neg)
	case *Or:
		return evalTerms(n.Terms, m, st, neg, neg)
	default:
		return false
	}
}

// evalTerms evaluates terms, each negated when neg is set, as a
// conjunction when all is set and as a disjunction otherwise.
func evalTerms(terms []Expr, m *spec.Message, st StateReader, neg, all bool) bool {
	for _, t := range terms {
		if evalExpr(t, m, st, neg) != all {
			return !all
		}
	}
	return all
}

// EvalConjunction evaluates a normalized conjunction.
func EvalConjunction(c Conjunction, m *spec.Message, st StateReader) bool {
	for _, a := range c {
		if !EvalAtom(a, m, st) {
			return false
		}
	}
	return true
}

// MatchActions evaluates a rule set against a message by brute force and
// returns the merged action set of all matching rules — the ground truth
// for the BDD and pipeline equivalence property tests. Actions are
// deduplicated (Action.Equal) and fwd ports are merged.
func MatchActions(rules []*Rule, m *spec.Message, st StateReader) ActionSet {
	var set ActionSet
	for _, r := range rules {
		if EvalExpr(r.Filter, m, st) {
			set.Add(r.Action)
		}
	}
	return set
}

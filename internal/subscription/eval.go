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
	return Compare(v, a.Rel, a.Const)
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
// semantics that the BDD and the compiled pipeline must agree with.
func EvalExpr(e Expr, m *spec.Message, st StateReader) bool {
	switch n := e.(type) {
	case *Bool:
		return n.Value
	case *Atom:
		return EvalAtom(n, m, st)
	case *Not:
		return !EvalExpr(n.Term, m, st)
	case *And:
		for _, t := range n.Terms {
			if !EvalExpr(t, m, st) {
				return false
			}
		}
		return true
	case *Or:
		for _, t := range n.Terms {
			if EvalExpr(t, m, st) {
				return true
			}
		}
		return false
	default:
		return false
	}
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
// deduplicated by Action.Key and fwd ports are merged.
func MatchActions(rules []*Rule, m *spec.Message, st StateReader) ActionSet {
	var set ActionSet
	for _, r := range rules {
		if EvalExpr(r.Filter, m, st) {
			set.Add(r.Action)
		}
	}
	return set
}

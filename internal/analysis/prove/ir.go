// Package prove is a translation validator for compiled Camus rule
// programs: it checks that the match-action tables the BDD compiler
// emits (§V, Algorithm 2) forward exactly the packets each
// subscription filter matches, using a second implementation that
// shares nothing with the compilation path.
//
// Independence is the point. The existing verifier
// (internal/analysis/rulecheck) re-queries the same internal/bdd
// engine that compiled the program, so a compiler bug and its
// "verification" share one implementation. This package instead
//
//   - gives the subscription AST its own denotational semantics over
//     per-field abstract domains — integer interval unions and
//     exact/cofinite string sets, bounded by the spec's field widths —
//     with its own DNF normalization and its own last-hop stateful
//     erasure (mirroring the documented §II policy, not the compiler's
//     code);
//   - symbolically executes the compiled program as a decision DAG
//     over a neutral IR (Program below), collecting per-leaf path
//     constraints and merged action sets; and
//   - proves per-rule equivalence in both directions, modulo the §V-D
//     forwarding merge: every packet satisfying rule R reaches a leaf
//     whose action set subsumes R's action, and no leaf fires an
//     action no matching rule justifies.
//
// Any disequivalence yields a concrete counterexample: a full field
// assignment whose divergence is re-checked concretely inside this
// package and which callers (camusc prove, internal/analysis/replay)
// serialize via internal/packet and replay through pipeline.Switch.
//
// The package must not import internal/bdd, internal/match or
// internal/compiler, directly or transitively — a depguard test
// enforces this. The compiler exports programs into this IR
// (compiler.Program.ProveIR); internal/spec and internal/subscription
// are the shared language definition and are trusted.
package prove

import (
	"fmt"
	"slices"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// Program is the prover's neutral view of a compiled switch program:
// the decision DAG of compiler.Program (Stages/Leaf/Init, and the
// multicast groups of its egress masks)
// re-expressed with the prover's own value domains.
type Program struct {
	Spec *spec.Spec
	// Parts lists each diagram's entry state and rule IDs, at least one
	// part. Every part walks the same stages, and a packet's outcome is
	// the union of the leaves the walks reach.
	Parts []Part
	// Stages in pipeline order.
	Stages []*Stage
	// Leaves are the terminal rows: state → merged action set.
	Leaves []*Leaf
	// Groups are the multicast port sets, indexed by group ID: the
	// compiler's egress mask rows decoded through its port dictionary,
	// what the switch replicates by.
	Groups [][]int

	leafByState map[int32]*Leaf
}

// Stage is one match-action table: every entry predicates on the one
// value named by Ref.
type Stage struct {
	// Ref identifies the value matched: a packet field, a header
	// validity bit, or a stateful aggregate.
	Ref subscription.FieldRef
	// Entries in match priority order: for one in-state, the first
	// entry whose domain contains the value wins (compiled entries are
	// normally disjoint, but capacity-bounded constraint loosening can
	// make an entry overlap earlier ones). Compiled entries do not cover
	// the domain: the compiler stores no entry that would go where the
	// state's default goes.
	Entries []*Entry
	// Defaults maps an in-state to the next state taken when the value
	// is absent or matches no entry (the BDD lo-walk) — for a compiled
	// program, also every value whose path through the state's
	// predicates ends where the all-false path does. States absent from
	// Defaults pass through unchanged.
	Defaults map[int32]int32

	byState map[int32][]*Entry
}

// Entry is one table row: (in-state, value domain) → out-state.
// Exactly one of Int/Str is valid, matching Ref's value type.
type Entry struct {
	In  int32
	Int IntDomain
	Str StrDomain
	Out int32
}

// Leaf is one terminal row: reaching state → merged actions.
type Leaf struct {
	In      int32
	Actions subscription.ActionSet
	// Group is the multicast group realizing the port set, -1 for
	// unicast/drop.
	Group int
	// Updates lists the aggregate keys whose registers this terminal
	// updates.
	Updates []string
}

// Finalize indexes the program after construction; it must be called
// (once) before Check or Eval. The compiler's exporter calls it.
func (p *Program) Finalize() {
	p.leafByState = make(map[int32]*Leaf, len(p.Leaves))
	for _, l := range p.Leaves {
		p.leafByState[l.In] = l
	}
	for _, st := range p.Stages {
		st.byState = make(map[int32][]*Entry)
		for _, e := range st.Entries {
			st.byState[e.In] = append(st.byState[e.In], e)
		}
	}
}

// Assignment is a concrete packet model: which headers are present,
// what each present subscribable field holds, and the aggregate
// register values. It is both the prover's counterexample currency and
// the input to its two concrete evaluators.
type Assignment struct {
	// Headers maps header name → present.
	Headers map[string]bool
	// Fields maps qualified field name → value (present headers only).
	Fields map[string]spec.Value
	// State maps aggregate key → register value.
	State map[string]int64
}

// Stateless reports whether the assignment needs no aggregate state.
func (a *Assignment) Stateless() bool { return len(a.State) == 0 }

// Message materializes the assignment as a spec.Message.
func (a *Assignment) Message(sp *spec.Spec) (*spec.Message, error) {
	m := spec.NewMessage(sp)
	for _, h := range sp.Headers {
		if !a.Headers[h.Name] {
			continue
		}
		m.MarkHeader(h.Name)
		for _, f := range h.Fields {
			if !f.Subscribable {
				continue
			}
			v, ok := a.Fields[f.QName()]
			if !ok {
				// Unconstrained field of a present header: zero value.
				if f.Type == spec.StringField {
					v = spec.StrVal("")
				} else {
					v = spec.IntVal(0)
				}
			}
			if err := m.Set(f.QName(), v); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// MapState returns the aggregate state as a subscription.StateReader.
func (a *Assignment) MapState() subscription.MapState {
	st := make(subscription.MapState, len(a.State))
	for k, v := range a.State {
		st[k] = v
	}
	return st
}

// value reads the stage's operand from the assignment, mirroring
// compiler.Program.Lookup's presence rules: validity bits and
// aggregates are always present; packet fields only when their header
// is. (On wire packets field presence and header presence coincide:
// packet.Decode sets every subscribable field of a decoded header.)
func (a *Assignment) value(ref subscription.FieldRef) (spec.Value, bool) {
	switch ref.Kind {
	case subscription.ValidityRef:
		bit := int64(0)
		if a.Headers[ref.Header] {
			bit = 1
		}
		return spec.IntVal(bit), true
	case subscription.AggregateRef:
		return spec.IntVal(a.State[ref.Key()]), true
	default: // PacketRef
		if !a.Headers[ref.Field.Header] {
			return spec.Value{}, false
		}
		if v, ok := a.Fields[ref.Field.QName()]; ok {
			return v, true
		}
		if ref.Field.Type == spec.StringField {
			return spec.StrVal(""), true
		}
		return spec.IntVal(0), true
	}
}

func (e *Entry) matches(v spec.Value) bool {
	if v.Kind == spec.StringField {
		return e.Str.Contains(v.Str)
	}
	return e.Int.Contains(v.Int)
}

// Eval executes the IR concretely for an assignment — the prover's own
// software model of the compiled pipeline, used to re-check every
// symbolic counterexample before it is reported. It returns the merged
// action set and update keys (empty action set = drop), united over the
// parts.
func (p *Program) Eval(a *Assignment) (subscription.ActionSet, []string) {
	var set subscription.ActionSet
	var upd []string
	for _, part := range p.Parts {
		s, u := p.evalFrom(part.Init, a)
		set.Merge(s)
		upd = append(upd, u...)
	}
	slices.Sort(upd)
	return set, slices.Compact(upd)
}

// evalFrom is Eval of the one walk from state init.
func (p *Program) evalFrom(init int32, a *Assignment) (subscription.ActionSet, []string) {
	state := init
	for _, st := range p.Stages {
		entries, in := st.byState[state]
		if !in {
			// Pass-through: the state does not enter this stage. (The
			// compiled walk has the same rule and never consults
			// Defaults for such states.)
			continue
		}
		v, present := a.value(st.Ref)
		next, matched := state, false
		if present {
			for _, e := range entries {
				if e.matches(v) {
					next, matched = e.Out, true
					break
				}
			}
		}
		if !matched {
			if d, ok := st.Defaults[state]; ok {
				next = d
			}
		}
		state = next
	}
	if l := p.leafByState[state]; l != nil {
		upd := append([]string(nil), l.Updates...)
		slices.Sort(upd)
		return l.Actions.Clone(), upd
	}
	return subscription.ActionSet{}, nil
}

// String renders the IR for debugging.
func (p *Program) String() string {
	s := fmt.Sprintf("prove IR: init=%d, %d stages, %d leaves\n", p.Parts[0].Init, len(p.Stages), len(p.Leaves))
	for i, part := range p.Parts {
		s += fmt.Sprintf("  part %d: init=%d, %d rules\n", i, part.Init, len(part.Rules))
	}
	for _, st := range p.Stages {
		s += fmt.Sprintf("  stage %s: %d entries, %d defaults\n", st.Ref.Key(), len(st.Entries), len(st.Defaults))
	}
	return s
}

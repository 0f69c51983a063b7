// Package compiler translates subscription rule sets into switch
// programs: a static pipeline generated once per application from the
// message spec (§V-A), and dynamic table entries compiled from the rule
// BDD whenever subscriptions change (§V-B..E, Algorithm 2).
package compiler

import (
	"fmt"
	"sort"
	"strings"

	"camus/internal/bdd"
	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// StateID is the pipeline metadata register that carries the current BDD
// state between stages (§V-D). It is a BDD node ID.
type StateID = int32

// Entry is one match-action table entry: (entry state, field range) →
// next state, exactly the rows of the paper's Fig. 6.
type Entry struct {
	In    StateID
	Match match.Constraint
	Out   StateID
}

func (e *Entry) String() string {
	return fmt.Sprintf("(%d, %s) -> %d", e.In, e.Match.Key(), e.Out)
}

// TableKind describes the memory a stage's table occupies (§V-E).
type TableKind int

const (
	// TernaryTable needs TCAM range/ternary entries.
	TernaryTable TableKind = iota
	// ExactTable uses SRAM exact matching.
	ExactTable
	// CompressedTable maps the field through a small TCAM value-map onto
	// a low-resolution code, then exact-matches the code in SRAM (the
	// third §V-E optimization).
	CompressedTable
)

func (k TableKind) String() string {
	switch k {
	case TernaryTable:
		return "ternary"
	case ExactTable:
		return "exact"
	case CompressedTable:
		return "compressed"
	default:
		return fmt.Sprintf("TableKind(%d)", int(k))
	}
}

// Table is one pipeline stage: every entry predicating on a single field,
// the field-specific component of the BDD (§V-D).
type Table struct {
	// Field identifies the field (or stateful aggregate) matched.
	Field *bdd.FieldVar
	// Kind is the realized memory type.
	Kind TableKind
	// Entries in no particular order; for any in-state the entry ranges
	// partition the field domain, so at most one entry matches.
	Entries []*Entry
	// Defaults maps each entry state to the next state taken when the
	// packet lacks the field entirely (every predicate false: the BDD
	// lo-walk). States absent from Defaults pass through unchanged.
	Defaults map[StateID]StateID
	// MapEntries counts the value-map entries of a CompressedTable.
	MapEntries int

	byState map[StateID][]*Entry
	// What the walk reads per message, resolved once by index: the
	// subscribable index of a packet-field stage (-1 otherwise) and the
	// register key of an aggregate stage.
	fieldIdx int
	aggKey   string
}

// Name returns the stage name (the field key).
func (t *Table) Name() string { return t.Field.Key() }

// index builds the per-state entry index and resolves the stage's input
// against sp, the program's spec.
func (t *Table) index(sp *spec.Spec) {
	t.byState = make(map[StateID][]*Entry)
	for _, e := range t.Entries {
		t.byState[e.In] = append(t.byState[e.In], e)
	}
	t.fieldIdx = -1
	switch t.Field.Ref.Kind {
	case subscription.PacketRef:
		if idx, ok := sp.SubscribableIndex(t.Field.Ref.Field); ok {
			t.fieldIdx = idx
		}
	case subscription.AggregateRef:
		t.aggKey = t.Field.Ref.Key()
	}
}

// input returns the value stage t matches on for m: a packet field, a
// header validity bit, or an aggregate register read through st.
func (p *Program) input(t *Table, m *spec.Message, st subscription.StateReader) (spec.Value, bool) {
	switch t.Field.Ref.Kind {
	case subscription.PacketRef:
		idx := t.fieldIdx
		if m.Spec() != p.Spec {
			// A message of another spec sharing the field (a merged
			// spec's component): resolve against its own layout.
			var ok bool
			if idx, ok = m.Spec().SubscribableIndex(t.Field.Ref.Field); !ok {
				return spec.Value{}, false
			}
		}
		return m.Get(idx)
	case subscription.ValidityRef:
		var bit int64
		if m.HeaderPresent(t.Field.Ref.Header) {
			bit = 1
		}
		return spec.IntVal(bit), true
	default: // AggregateRef
		var cur int64
		if st != nil {
			cur = st.AggValue(t.aggKey)
		}
		return spec.IntVal(cur), true
	}
}

// Next computes the stage transition for the current state given the
// field value. ok=false means the state does not enter this stage
// (pass-through).
func (t *Table) Next(state StateID, v spec.Value, present bool) (StateID, bool) {
	entries, in := t.byState[state]
	if !in {
		return state, false
	}
	if present {
		for _, e := range entries {
			if e.Match.Matches(v) {
				return e.Out, true
			}
		}
	}
	// Field absent (or value on a pruned-unsat residue): all predicates
	// evaluate false — take the precomputed lo-walk.
	if d, ok := t.Defaults[state]; ok {
		return d, true
	}
	return state, false
}

// LeafEntry is one row of the final Leaf table: terminal state → action
// set (§V-D, Fig. 6 right).
type LeafEntry struct {
	In      StateID
	Actions subscription.ActionSet
	// Group is the multicast group realizing a multi-port action set,
	// or -1 for unicast/drop (§VII: multicast groups are allocated per
	// distinct overlapping-filter set).
	Group int
	// Updates lists the state-variable keys this terminal updates
	// (stateful subscriptions, §II/§V-A).
	Updates []string
}

// MulticastGroup is an allocated replication group.
type MulticastGroup struct {
	ID    int
	Ports []int
}

// Program is the compiled dynamic configuration for one switch: the
// control-plane rules that populate the static pipeline's tables.
type Program struct {
	Spec *spec.Spec
	BDD  *bdd.BDD
	// Stages in BDD variable order; the fixed-length pipeline of §V-D.
	Stages []*Table
	// Leaf is the terminal table.
	Leaf []*LeafEntry
	// Init is the pipeline entry state (the BDD root).
	Init StateID
	// Groups are the allocated multicast groups.
	Groups []MulticastGroup
	// Resources is the switch resource estimate.
	Resources Resources

	leafByState map[StateID]*LeafEntry
}

// TotalEntries is the figure-of-merit of Fig. 12/13/15: the number of
// control-plane table entries across all stages, value maps, and the
// leaf table.
func (p *Program) TotalEntries() int {
	n := len(p.Leaf)
	for _, t := range p.Stages {
		n += len(t.Entries) + t.MapEntries + len(t.Defaults)
	}
	return n
}

// Lookup evaluates the full pipeline for a message: the reference
// software implementation of the compiled switch, also used by the
// pipeline runtime. It returns the leaf entry reached (nil for drop with
// no leaf row).
func (p *Program) Lookup(m *spec.Message, st subscription.StateReader) *LeafEntry {
	le, _ := p.LookupKeyed(m, st, nil)
	return le
}

// LookupKeyed is Lookup's stage walk, additionally reporting whether the
// walk was *pure*: every taken transition (ok=true from Table.Next)
// happened at a stage marked true in keyStage (indexed like Stages; nil
// skips the tracking and reports false). Purity is what makes a
// leaf-cache fill sound: whether a state enters a stage at all is a
// property of the state alone (byState/Defaults membership is
// value-independent), so two messages agreeing on every keyStage input
// follow identical trajectories — a pure walk's leaf is a function of
// the key and may be memoized without hiding any overlapping decision
// (DESIGN.md §16).
func (p *Program) LookupKeyed(m *spec.Message, st subscription.StateReader, keyStage []bool) (*LeafEntry, bool) {
	state := p.Init
	pure := keyStage != nil
	for i, t := range p.Stages {
		v, present := p.input(t, m, st)
		var took bool
		state, took = t.Next(state, v, present)
		if pure && took && !keyStage[i] {
			pure = false
		}
	}
	return p.leafByState[state], pure
}

// Eval returns the merged action set for a message (empty set = drop).
func (p *Program) Eval(m *spec.Message, st subscription.StateReader) subscription.ActionSet {
	if le := p.Lookup(m, st); le != nil {
		return le.Actions
	}
	return subscription.ActionSet{}
}

// String renders the program as the paper's Fig. 6-style table listing.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: init=%d\n", p.Spec.Name, p.Init)
	for _, t := range p.Stages {
		fmt.Fprintf(&b, "table %s (%s, %d entries):\n", t.Name(), t.Kind, len(t.Entries))
		for _, e := range t.Entries {
			fmt.Fprintf(&b, "  %s\n", e)
		}
		ins := make([]StateID, 0, len(t.Defaults))
		for in := range t.Defaults {
			ins = append(ins, in)
		}
		sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
		for _, in := range ins {
			fmt.Fprintf(&b, "  (%d, absent) -> %d\n", in, t.Defaults[in])
		}
	}
	fmt.Fprintf(&b, "table Leaf (%d entries):\n", len(p.Leaf))
	for _, le := range p.Leaf {
		fmt.Fprintf(&b, "  %d -> %s", le.In, le.Actions)
		if le.Group >= 0 {
			fmt.Fprintf(&b, " [mcast %d]", le.Group)
		}
		if len(le.Updates) > 0 {
			fmt.Fprintf(&b, " updates=%v", le.Updates)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

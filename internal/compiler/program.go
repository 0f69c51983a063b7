// Package compiler translates subscription rule sets into switch
// programs: a static pipeline generated once per application from the
// message spec (§V-A), and dynamic table entries compiled from the rule
// BDD whenever subscriptions change (§V-B..E, Algorithm 2).
package compiler

import (
	"fmt"
	"slices"
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
//
// An Entry is immutable once its program is returned: the programs an
// Incremental compiles in successive epochs share the entries of every
// block both contain, and Match may be a constraint the BDD universe
// interned. Code that wants a different entry (internal/analysis/corrupt)
// puts a modified copy into its own program's Table.Entries; the slice
// and the Defaults map belong to the one program.
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
	// Entries of one in-state are disjoint, except where
	// match.maxExclusions dropped an exclusion and an entry overlaps a
	// later broader one: there the first matching entry in slice order
	// wins (emitPaths' hi-before-lo order, which is BDD evaluation order).
	// An entry that would go where its state's Defaults row goes is not
	// stored unless such a later entry overlaps it, so a state's entries
	// need not cover the field's domain.
	Entries []*Entry
	// Defaults maps each entry state to the next state taken when the
	// packet lacks the field or its value matches none of the state's
	// entries (every predicate false: the BDD lo-walk). States absent
	// from Defaults pass through unchanged.
	Defaults map[StateID]StateID
	// MapEntries counts the value-map entries of a CompressedTable.
	MapEntries int
}

// Name returns the stage name (the field key).
func (t *Table) Name() string { return t.Field.Key() }

// LeafEntry is one row of the final Leaf table: terminal state → action
// set (§V-D, Fig. 6 right). Like Entry it is immutable once its program
// is returned, slices included; Program.Leaf belongs to the one program.
type LeafEntry struct {
	In      StateID
	Actions subscription.ActionSet
	// Updates lists the state-variable keys this terminal updates
	// (stateful subscriptions, §II/§V-A).
	Updates []string
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
	// Parts lists the program's diagrams (bdd.Engine.MergeParts), at least
	// one, in order. Every part walks the same stage tables from its own
	// entry state (its BDD root), and a message's outcome is the union of
	// the leaves the walks reach.
	Parts []Part

	// walk is what Lookup reads, derived from the fields above by Reindex.
	walk walk
}

// Part is one diagram of a program: its entry state and, when the program
// has several parts, the IDs of the rules it holds, ascending. The only
// part of a one-part program lists no rules: it holds every rule.
type Part struct {
	Init  StateID
	Rules []int
}

// SameTables reports whether p and q run the same tables: the same stage
// tables and leaf rows, by pointer, entered from the same part states. An
// Incremental update that moves no part root and changes no entry returns
// such a program, new only in its diagram and its parts' rule lists, and
// a switch running q has no need to install p.
func (p *Program) SameTables(q *Program) bool {
	return q != nil && slices.Equal(p.Stages, q.Stages) && slices.Equal(p.Leaf, q.Leaf) &&
		slices.EqualFunc(p.Parts, q.Parts, func(a, b Part) bool { return a.Init == b.Init })
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
// pipeline runtime (through LeafSlot, the same walk, once per part). It
// returns the leaf entry reached (nil for drop with no leaf row). Of the
// leaves several parts' walks reach, one that does nothing (no action,
// no update) is passed over; when two or more do something, Lookup
// returns a new entry holding their union: the first one's In, every
// action and every update key once.
func (p *Program) Lookup(m *spec.Message, st subscription.StateReader) *LeafEntry {
	var le *LeafEntry
	merged := false
	for part := range p.walk.starts {
		s := p.LeafSlot(part, m, st)
		if s == 0 {
			continue
		}
		next := p.walk.leaves[s]
		switch {
		case le == nil || le.idle():
			le = next
			continue
		case next.idle():
			continue
		case !merged:
			u := *le
			u.Actions, u.Updates = le.Actions.Clone(), slices.Clone(le.Updates)
			le, merged = &u, true
		}
		le.Actions.Merge(next.Actions)
		for _, k := range next.Updates {
			if !slices.Contains(le.Updates, k) {
				le.Updates = append(le.Updates, k)
			}
		}
	}
	return le
}

// idle reports whether the leaf does nothing: no action, no update.
func (le *LeafEntry) idle() bool { return le.Actions.IsEmpty() && len(le.Updates) == 0 }

// Eval returns the merged action set for a message (empty set = drop).
func (p *Program) Eval(m *spec.Message, st subscription.StateReader) subscription.ActionSet {
	if le := p.Lookup(m, st); le != nil {
		return le.Actions
	}
	return subscription.ActionSet{}
}

// String renders the program as the paper's Fig. 6-style table listing.
// A state's Defaults row prints as "(in, absent) -> out"; it also answers
// a present value that matches none of the state's entries.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: init=%d\n", p.Spec.Name, p.Parts[0].Init)
	for i, part := range p.Parts {
		if len(p.Parts) > 1 {
			fmt.Fprintf(&b, "part %d: init=%d rules=%v\n", i, part.Init, part.Rules)
		}
	}
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
	for i, le := range p.Leaf {
		fmt.Fprintf(&b, "  %d -> %s", le.In, le.Actions)
		if g := p.Egress().Group(i + 1); g >= 0 {
			fmt.Fprintf(&b, " [mcast %d]", g)
		}
		if len(le.Updates) > 0 {
			fmt.Fprintf(&b, " updates=%v", le.Updates)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

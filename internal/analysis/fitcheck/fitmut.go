package fitcheck

import (
	"fmt"
	"slices"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Mutation is one named capacity inflation for the known-bad corpus, in
// the style of internal/analysis/corrupt: a deterministic, in-place
// edit of a correctly compiled program that overflows one fit dimension
// without touching the others. JSON-encodable for corpus files.
type Mutation struct {
	// Op selects the inflation:
	//
	//	inflate-exact    — append N synthetic exact entries to stage Stage
	//	inflate-ternary  — append N worst-case range entries to stage Stage
	//	inflate-leaf     — append N leaf rows
	//	add-groups       — append N leaves on distinct two-port sets
	//	widen-field      — grow stage Stage's field to N bits
	//	add-aggregates   — mint N synthetic aggregate windows
	Op string `json:"op"`
	// Stage indexes into Program.Stages; Field, when set, selects the
	// stage by its field key instead (robust to stage reordering — the
	// adaptive-corpus idiom of internal/analysis/prove).
	Stage int    `json:"stage,omitempty"`
	Field string `json:"field,omitempty"`
	// N is the inflation count (entries, groups, bits, windows).
	N int `json:"n,omitempty"`
}

// stage resolves the target stage table.
func (m Mutation) stage(p *compiler.Program) (*compiler.Table, error) {
	if m.Field != "" {
		for _, t := range p.Stages {
			if t.Name() == m.Field {
				return t, nil
			}
		}
		return nil, fmt.Errorf("fitmut: no stage for field %q", m.Field)
	}
	if m.Stage < 0 || m.Stage >= len(p.Stages) {
		return nil, fmt.Errorf("fitmut: no stage %d", m.Stage)
	}
	return p.Stages[m.Stage], nil
}

// Apply performs the mutation on the program in place. The program
// stays structurally consistent (entries carry real in-states) but is
// no longer behaviorally meaningful — fitmut programs are for the
// layout analyzer only, never the runtime.
func (m Mutation) Apply(p *compiler.Program) error {
	switch m.Op {
	case "inflate-exact", "inflate-ternary":
		t, err := m.stage(p)
		if err != nil {
			return err
		}
		in := compiler.StateID(0)
		if len(t.Entries) > 0 {
			in = t.Entries[0].In
		}
		_, bits := compiler.FieldWidth(t)
		for i := 0; i < m.N; i++ {
			var c match.Constraint
			if m.Op == "inflate-exact" {
				c = &match.IntConstraint{Lo: int64(1e9 + i), Hi: int64(1e9 + i)}
			} else {
				// A [1, 2^bits-2] range expands to the worst-case prefix
				// count for the field width.
				hi := int64(1)<<uint(bits) - 2
				if bits > 62 {
					hi = 1<<62 - 2
				}
				c = &match.IntConstraint{Lo: 1, Hi: hi}
			}
			t.Entries = append(t.Entries, &compiler.Entry{In: in, Match: c, Out: in})
		}
	case "inflate-leaf":
		next := compiler.StateID(1 << 20)
		for i := 0; i < m.N; i++ {
			p.Leaf = append(p.Leaf, &compiler.LeafEntry{In: next + compiler.StateID(i)})
		}
	case "add-groups":
		// N leaves on fresh states, each on its own two-port set above
		// every real port: N more distinct masks for Reindex to intern.
		next := compiler.StateID(1 << 21)
		for i := 0; i < m.N; i++ {
			p.Leaf = append(p.Leaf, &compiler.LeafEntry{
				In:      next + compiler.StateID(i),
				Actions: subscription.ActionSet{Ports: []int{1 << 20, 1<<20 + 1 + i}},
			})
		}
		if err := p.Reindex(); err != nil {
			return err
		}
	case "widen-field":
		t, err := m.stage(p)
		if err != nil {
			return err
		}
		f := t.Field.Ref.Field
		if f == nil {
			return fmt.Errorf("fitmut: stage %q has no packet field", t.Name())
		}
		f.Bits = m.N
	case "add-aggregates":
		// The windows are linked the way the compiler links a live
		// aggregate: a universe field a leaf row updates.
		if len(p.Leaf) == 0 {
			return fmt.Errorf("fitmut: program has no leaf row")
		}
		u, le := p.BDD.Universe, p.Leaf[0]
		u.Fields = slices.Clip(u.Fields)
		le.Updates = slices.Clip(le.Updates)
		for i := 0; i < m.N; i++ {
			ref := subscription.FieldRef{
				Kind: subscription.AggregateRef,
				Agg:  spec.AggCount,
				Var:  fmt.Sprintf("fitmut%d", i),
			}
			u.Fields = append(u.Fields, &bdd.FieldVar{Index: len(u.Fields), Ref: ref})
			le.Updates = append(le.Updates, ref.Key())
		}
	default:
		return fmt.Errorf("fitmut: unknown op %q", m.Op)
	}
	return nil
}

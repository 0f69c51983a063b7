// Package corrupt seeds known-bad switch programs for the translation
// validator's regression corpus: deterministic, named mutations of a
// correctly compiled program that simulate compiler defects — wrong
// leaf actions, misdirected table entries, lost defaults, broken
// register updates. The prover (internal/analysis/prove) must produce
// a concrete counterexample packet for every one of them.
//
// Mutations edit the program's tables and re-derive its packet-path
// index (compiler.Program.Reindex), so the runtime really executes the
// corrupted tables. The tables are the program's own, the entries in them
// are not — an Incremental's successive programs share them
// (compiler.Entry) — so a mutation swaps in a modified copy of the entry
// it corrupts and later programs of the same compiler stay clean.
package corrupt

import (
	"fmt"

	"camus/internal/compiler"
	"camus/internal/subscription"
)

// Mutation is one named corruption, JSON-encodable for corpus files.
type Mutation struct {
	// Op selects the corruption:
	//
	//	add-leaf-port    — leaf Leaf additionally forwards to Port
	//	remove-leaf-port — leaf Leaf no longer forwards to Port
	//	redirect-entry   — stage Stage's entry Entry jumps to state Out
	//	drop-default     — stage Stage loses the default for state Out
	//	drop-update      — leaf Leaf no longer updates aggregate Key
	//	add-update       — leaf Leaf spuriously updates aggregate Key
	Op string `json:"op"`
	// Stage and Entry index into Program.Stages / Table.Entries.
	Stage int `json:"stage,omitempty"`
	Entry int `json:"entry,omitempty"`
	// Leaf indexes into Program.Leaf.
	Leaf int    `json:"leaf,omitempty"`
	Port int    `json:"port,omitempty"`
	Key  string `json:"key,omitempty"`
	// Out is the redirect target state (redirect-entry) or the default's
	// in-state (drop-default).
	Out int32 `json:"out,omitempty"`
}

// Apply performs the mutation on the program in place.
func (m Mutation) Apply(p *compiler.Program) error {
	switch m.Op {
	case "add-leaf-port":
		le, err := leaf(p, m.Leaf)
		if err != nil {
			return err
		}
		le.Actions = le.Actions.Clone()
		le.Actions.Add(subscription.FwdAction(m.Port))
		p.Leaf[m.Leaf] = le
	case "remove-leaf-port":
		le, err := leaf(p, m.Leaf)
		if err != nil {
			return err
		}
		kept := le.Actions.Ports[:0:0]
		found := false
		for _, q := range le.Actions.Ports {
			if q == m.Port {
				found = true
				continue
			}
			kept = append(kept, q)
		}
		if !found {
			return fmt.Errorf("corrupt: leaf %d has no port %d", m.Leaf, m.Port)
		}
		le.Actions.Ports = kept
		p.Leaf[m.Leaf] = le
	case "redirect-entry":
		if m.Stage < 0 || m.Stage >= len(p.Stages) {
			return fmt.Errorf("corrupt: no stage %d", m.Stage)
		}
		t := p.Stages[m.Stage]
		if m.Entry < 0 || m.Entry >= len(t.Entries) {
			return fmt.Errorf("corrupt: stage %d has no entry %d", m.Stage, m.Entry)
		}
		e := *t.Entries[m.Entry]
		e.Out = m.Out
		t.Entries[m.Entry] = &e
	case "drop-default":
		if m.Stage < 0 || m.Stage >= len(p.Stages) {
			return fmt.Errorf("corrupt: no stage %d", m.Stage)
		}
		t := p.Stages[m.Stage]
		if _, ok := t.Defaults[m.Out]; !ok {
			return fmt.Errorf("corrupt: stage %d has no default for state %d", m.Stage, m.Out)
		}
		delete(t.Defaults, m.Out)
	case "drop-update":
		le, err := leaf(p, m.Leaf)
		if err != nil {
			return err
		}
		kept := le.Updates[:0:0]
		found := false
		for _, k := range le.Updates {
			if k == m.Key {
				found = true
				continue
			}
			kept = append(kept, k)
		}
		if !found {
			return fmt.Errorf("corrupt: leaf %d has no update %q", m.Leaf, m.Key)
		}
		le.Updates = kept
		p.Leaf[m.Leaf] = le
	case "add-update":
		le, err := leaf(p, m.Leaf)
		if err != nil {
			return err
		}
		le.Updates = append(le.Updates[:len(le.Updates):len(le.Updates)], m.Key)
		p.Leaf[m.Leaf] = le
	default:
		return fmt.Errorf("corrupt: unknown op %q", m.Op)
	}
	return p.Reindex()
}

// leaf returns a copy of leaf row i for the caller to modify and store
// back into p.Leaf[i]. The copy still shares its slices with the
// original: replace them, do not write through them.
func leaf(p *compiler.Program, i int) (*compiler.LeafEntry, error) {
	if i < 0 || i >= len(p.Leaf) {
		return nil, fmt.Errorf("corrupt: no leaf %d", i)
	}
	le := *p.Leaf[i]
	return &le, nil
}

// Apply runs a mutation list in order.
func Apply(p *compiler.Program, ms []Mutation) error {
	for i, m := range ms {
		if err := m.Apply(p); err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return nil
}

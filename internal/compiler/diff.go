package compiler

import (
	"errors"
	"sort"
	"strings"
)

// Classified errors for incremental rule maintenance. Callers (the
// control plane, RPC front ends) branch on these with errors.Is to
// distinguish caller mistakes from compile failures.
var (
	// ErrUnknownRule is returned by Remove for a rule ID that is not
	// installed.
	ErrUnknownRule = errors.New("compiler: rule not installed")
	// ErrDuplicateRule is returned by Add for a rule ID that is already
	// installed.
	ErrDuplicateRule = errors.New("compiler: rule already installed")
)

// entryIdent identifies a table entry for control-plane diffing. BDD
// node IDs are stable across incremental rebuilds (hash-consing), so
// unchanged pipeline regions produce identical idents.
type entryIdent struct {
	table   string
	in, out StateID
	match   string // constraint key; "absent" for defaults; action-set key for leaves
	updates string // leaf entries only: joined register updates
}

func entryKeys(p *Program) map[entryIdent]int {
	out := make(map[entryIdent]int)
	if p == nil {
		return out
	}
	for _, t := range p.Stages {
		name := t.Name()
		for _, e := range t.Entries {
			out[entryIdent{table: name, in: e.In, out: e.Out, match: e.Match.Key()}]++
		}
		for in, next := range t.Defaults {
			out[entryIdent{table: name, in: in, out: next, match: "absent"}]++
		}
	}
	for _, le := range p.Leaf {
		out[entryIdent{
			table:   "leaf",
			in:      le.In,
			match:   le.Actions.Key(),
			updates: strings.Join(le.Updates, "\x1f"),
		}]++
	}
	return out
}

// DiffPrograms reports the control-plane delta between two programs
// compiled by the same engine: how many table entries must be installed,
// deleted, and how many carry over unchanged. Entry identity includes
// raw BDD state IDs, which are stable across rebuilds of one engine but
// not across different compilers — to compare programs from independent
// compilations (e.g. incremental vs. batch), diff their Canonical()
// forms instead.
//
// Incremental.Apply does not call it: it counts the same three numbers
// from the blocks that entered and left the program, and the property
// tests hold that count to this entry-by-entry one.
func DiffPrograms(old, fresh *Program) (added, removed, reused int) {
	oldKeys := entryKeys(old)
	newKeys := entryKeys(fresh)
	for k, n := range newKeys {
		if o := oldKeys[k]; o > 0 {
			m := n
			if o < m {
				m = o
			}
			reused += m
			if n > o {
				added += n - o
			}
		} else {
			added += n
		}
	}
	for k, o := range oldKeys {
		n := newKeys[k]
		if o > n {
			removed += o - n
		}
	}
	return added, removed, reused
}

// stateLess orders states by their already-assigned canonical number.
// Sorting must not assign numbers itself (comparator call order is not
// deterministic), so unassigned strays — unreachable entries, which a
// well-formed program does not have — order after assigned states by
// raw ID.
func stateLess(canon map[StateID]StateID, a, b StateID) bool {
	ca, aok := canon[a]
	cb, bok := canon[b]
	if aok != bok {
		return aok
	}
	if !aok {
		return a < b
	}
	return ca < cb
}

// Canonical returns a structurally renumbered copy of the program:
// state IDs are reassigned in a deterministic order derived only from
// the table structure (stages in pipeline order; within a stage,
// entries ordered by renumbered in-state then match key). Two programs
// with identical table structure canonicalize to byte-identical entry
// sets regardless of the BDD node IDs their compilers happened to
// allocate, which is what lets DiffPrograms compare an incrementally
// maintained program against a fresh batch compile.
func (p *Program) Canonical() *Program {
	canon := make(map[StateID]StateID)
	next := StateID(0)
	get := func(s StateID) StateID {
		if c, ok := canon[s]; ok {
			return c
		}
		c := next
		next++
		canon[s] = c
		return c
	}
	for _, part := range p.Parts {
		get(part.Init)
	}

	np := &Program{
		Spec: p.Spec,
		BDD:  p.BDD,
	}
	for _, part := range p.Parts {
		np.Parts = append(np.Parts, Part{Init: canon[part.Init], Rules: part.Rules})
	}
	for _, t := range p.Stages {
		es := append([]*Entry(nil), t.Entries...)
		// Every in-state was numbered as an out-state of an earlier
		// stage (or is Init), so sorting by the renumbered in-state is
		// well defined; unreachable strays sort last by raw ID.
		sort.Slice(es, func(i, j int) bool {
			a, b := es[i], es[j]
			if a.In != b.In {
				return stateLess(canon, a.In, b.In)
			}
			return a.Match.Key() < b.Match.Key()
		})
		nt := &Table{
			Field:      t.Field,
			Kind:       t.Kind,
			Entries:    make([]*Entry, 0, len(es)),
			Defaults:   make(map[StateID]StateID, len(t.Defaults)),
			MapEntries: t.MapEntries,
		}
		for _, e := range es {
			nt.Entries = append(nt.Entries, &Entry{In: get(e.In), Match: e.Match, Out: get(e.Out)})
		}
		ins := make([]StateID, 0, len(t.Defaults))
		for in := range t.Defaults {
			ins = append(ins, in)
		}
		sort.Slice(ins, func(i, j int) bool { return stateLess(canon, ins[i], ins[j]) })
		for _, in := range ins {
			nt.Defaults[get(in)] = get(t.Defaults[in])
		}
		np.Stages = append(np.Stages, nt)
	}
	leaf := append([]*LeafEntry(nil), p.Leaf...)
	sort.Slice(leaf, func(i, j int) bool { return stateLess(canon, leaf[i].In, leaf[j].In) })
	for _, le := range leaf {
		np.Leaf = append(np.Leaf, &LeafEntry{In: get(le.In), Actions: le.Actions, Updates: le.Updates})
	}
	// np holds p's tables renumbered: Reindex fails on it only where it
	// fails on p, and then np, like p, has no walk.
	_ = np.Reindex()
	return np
}

package compiler

import (
	"slices"
	"sort"

	"camus/internal/bdd"
	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// UpdateActionName is the internal action that feeds a packet into a
// stateful aggregate register. The compiler synthesizes one rule per
// (stateful rule, aggregate): the aggregate updates whenever the REST of
// the filter matches (paper §II), independent of the stateful predicate's
// own outcome.
const UpdateActionName = "__update"

// Options configure dynamic compilation.
type Options struct {
	// BDD options (field order, pruning ablation).
	BDD bdd.Options
	// DisableExactOpt turns off exact-match extraction (§V-E #2):
	// every stage is realized in TCAM. Ablation only.
	DisableExactOpt bool
	// DisableCompression turns off low-resolution domain mapping
	// (§V-E #3). Ablation only.
	DisableCompression bool
	// OneDiagram compiles every rule set into one diagram, as the paper
	// does, where the compiler would split rules that test different
	// fields into parts (bdd.Engine.MergeParts). Ablation only.
	OneDiagram bool
	// LastHop marks the program as running on a last-hop (host-facing)
	// switch: stateful predicates are evaluated and updated here. On
	// non-last-hop switches stateful atoms are erased (treated as true)
	// because re-evaluating them on multiple devices gives wrong results
	// (§II: "it only evaluates stateful functions at the last hop").
	LastHop bool
	// LastHopPort refines LastHop per rule: when set, a rule keeps its
	// stateful atoms only if every fwd port it targets is host-facing
	// (the hop immediately before a subscriber). Rules without fwd ports
	// (custom actions) fall back to LastHop. Used by the controller,
	// where one ToR program mixes host-facing and transit rules.
	LastHopPort func(port int) bool
	// DisableValidityGuards skips the implicit valid(header)==1 guards
	// (P4 isValid()) added to every rule. Only for workloads where every
	// packet is known to carry every referenced header.
	DisableValidityGuards bool
}

// compressionThreshold is the maximum number of distinct comparison
// constants for a field to qualify for domain compression (the mapped
// domain must fit 8 bits).
const compressionThreshold = 120

// Compile translates a rule set into a switch program: the program of a
// fresh Incremental after one Apply of the rules, so a batch compile and
// a live one are the same computation. Rules → program is one goroutine's
// computation (DESIGN §11); callers with independent rule sets, such as
// controller.Deploy's switches, run one Compile per goroutine.
func Compile(sp *spec.Spec, rules []*subscription.Rule, opts Options) (*Program, error) {
	inc, err := NewIncremental(sp, opts)
	if err != nil {
		return nil, err
	}
	up, err := inc.Apply(rules, nil)
	if err != nil {
		return nil, err
	}
	return up.Program, nil
}

// injectValidityGuards appends rules to out, each with valid(header)==1
// atoms prepended for every header its conjunction reads, so rules never
// match packets lacking their headers (the parser's isValid() bits, §VI).
func injectValidityGuards(out, rules []subscription.NormalizedRule) []subscription.NormalizedRule {
	var headers []string // reused scratch; a rule reads 1–3 headers
	for _, nr := range rules {
		headers = headers[:0]
		addHeader := func(h string) {
			if h == "" {
				return
			}
			for _, x := range headers {
				if x == h {
					return
				}
			}
			headers = append(headers, h)
		}
		for _, a := range nr.Conj {
			switch a.Ref.Kind {
			case subscription.PacketRef:
				addHeader(a.Ref.Field.Header)
			case subscription.AggregateRef:
				if a.Ref.Field != nil {
					addHeader(a.Ref.Field.Header)
				}
			}
		}
		if len(headers) == 0 {
			out = append(out, nr)
			continue
		}
		conj := make(subscription.Conjunction, 0, len(headers)+len(nr.Conj))
		for _, h := range headers {
			conj = append(conj, subscription.ValidAtom(h))
		}
		conj = append(conj, nr.Conj...)
		out = append(out, subscription.NormalizedRule{RuleID: nr.RuleID, Conj: conj, Action: nr.Action})
	}
	return out
}

// ruleIsLastHop decides whether a rule's stateful atoms are active: the
// rule must run on the hop immediately before its subscribers.
func ruleIsLastHop(nr subscription.NormalizedRule, opts Options) bool {
	if opts.LastHopPort == nil {
		return opts.LastHop
	}
	if len(nr.Action.Ports) == 0 {
		return opts.LastHop
	}
	for _, p := range nr.Action.Ports {
		if !opts.LastHopPort(p) {
			return false
		}
	}
	return true
}

// expandStateful rewrites stateful rules per the last-hop policy and
// synthesizes the register-update rules. Rules with no aggregate atom are
// returned as they are.
func expandStateful(rules []subscription.NormalizedRule, opts Options) []subscription.NormalizedRule {
	if !slices.ContainsFunc(rules, func(nr subscription.NormalizedRule) bool {
		return slices.ContainsFunc(nr.Conj, func(a *subscription.Atom) bool { return a.Ref.Kind == subscription.AggregateRef })
	}) {
		return rules
	}
	var out []subscription.NormalizedRule
	seenUpdate := make(map[string]bool)
	for _, nr := range rules {
		var stateless subscription.Conjunction
		var aggKeys []string
		for _, a := range nr.Conj {
			if a.Ref.Kind == subscription.AggregateRef {
				aggKeys = append(aggKeys, a.Ref.Key())
			} else {
				stateless = append(stateless, a)
			}
		}
		if len(aggKeys) == 0 {
			out = append(out, nr)
			continue
		}
		if !ruleIsLastHop(nr, opts) {
			// Erase stateful atoms: upstream switches must forward a
			// superset (completeness); the last hop enforces them.
			out = append(out, subscription.NormalizedRule{
				RuleID: nr.RuleID, Conj: stateless, Action: nr.Action,
			})
			continue
		}
		out = append(out, nr)
		// One update rule per (stateless context, aggregate). The update
		// fires whenever the rest of the filter matches.
		for _, key := range aggKeys {
			dedup := stateless.Key() + "|" + key
			if seenUpdate[dedup] {
				continue
			}
			seenUpdate[dedup] = true
			out = append(out, subscription.NormalizedRule{
				RuleID: nr.RuleID,
				Conj:   stateless,
				Action: subscription.Action{Name: UpdateActionName, Args: []string{key}},
			})
		}
	}
	return out
}

// entryBlock is the emitted form of one in-node of one field component:
// one entry per path from the node to the component's out-nodes, in
// emitPaths' hi-before-lo order, plus the absent-field default. It is a
// pure function of the node — hash-consing fixes a node's predicate and
// children for its builder's lifetime, and emitPaths reads nothing else
// (the universe's refinement memo returns what match.Constraint.With
// would) — so the programs an Incremental compiles in successive epochs
// share the blocks (and the *Entry values in them) of every in-node both
// reach.
type entryBlock struct {
	entries []*Entry
	// def is the lo-walk: the state taken when every predicate on the
	// field is false (absent-field fallback).
	def StateID
	// exact: every entry pins one value or is residual (see classify).
	exact bool
}

// size is the number of control-plane entries the block installs.
func (b *entryBlock) size() int { return len(b.entries) + 1 }

func emitBlock(univ *bdd.Universe, u *bdd.Node) *entryBlock {
	b := &entryBlock{exact: true}
	ctx, c := univ.FreshCtx(u.Pred)
	// The entries are one slab: a block lives and dies as a unit, and the
	// root block of an exact field (one entry per symbol) is re-emitted by
	// every change under any of its values.
	slab := emitPaths(nil, univ, u, u, ctx, c)
	b.entries = make([]*Entry, len(slab))
	for i := range slab {
		e := &slab[i]
		b.entries[i] = e
		if _, ok := e.Match.Exact(); !ok && !e.Match.IsResidual() {
			b.exact = false
		}
	}
	n := u
	for !n.IsTerminal() && n.Pred.FieldIdx == u.Pred.FieldIdx {
		n = n.Lo
	}
	b.def = n.ID
	return b
}

// emitter runs Algorithm 2 — slice the BDD into field-specific components
// and translate each into a (state × range → state) table — and keeps,
// between the rebuilds of one engine, what the next rebuild reuses and
// what the entry delta is counted against: the blocks and terminals of
// the program it emitted last. The zero value emits from scratch.
type emitter struct {
	blocks map[StateID]*entryBlock // by in-node ID
	leaves map[StateID]*LeafEntry  // by terminal ID
	// entries is the last program's count of diffable entries (block
	// sizes plus leaves); nodes the BDD nodes it reached.
	entries int
	nodes   int
}

// entryDelta is the control-plane delta between two emits of one emitter,
// in DiffPrograms' terms.
type entryDelta struct{ added, removed, reused int }

// FromBDD runs Algorithm 2: slice the BDD into field-specific components
// and translate each into a (state × range → state) table.
func FromBDD(d *bdd.BDD, opts Options) (*Program, error) {
	p, _, err := new(emitter).emit(d, opts)
	return p, err
}

// parts is d's parts as a program's: each entered at its root's state.
func parts(d *bdd.BDD) []Part {
	out := make([]Part, len(d.Parts))
	for i, part := range d.Parts {
		out[i] = Part{Init: part.Root.ID, Rules: part.Rules}
	}
	return out
}

// emit compiles d, running emitPaths only for in-nodes the previous emit
// did not reach. The delta needs no comparison of entries: a block's
// entries all carry its node ID as their in-state, so two programs of one
// engine share exactly the entries of the blocks (and the terminals) they
// both hold. On error the emitter is unchanged.
func (em *emitter) emit(d *bdd.BDD, opts Options) (*Program, entryDelta, error) {
	p := &Program{
		Spec:  d.Universe.Spec,
		BDD:   d,
		Parts: parts(d),
	}
	// In nodes per component: the root (if internal) plus every node
	// whose parent lies outside its component.
	// blocks gets every in-node's block: the previous emit's where it
	// had one, nil — to be emitted below — where it did not.
	inNodes := make([][]*bdd.Node, len(d.Universe.Fields))
	blocks := make(map[StateID]*entryBlock, len(em.blocks))
	addIn := func(n *bdd.Node) {
		if n.IsTerminal() {
			return
		}
		if _, ok := blocks[n.ID]; ok {
			return
		}
		blocks[n.ID] = em.blocks[n.ID]
		inNodes[n.Pred.FieldIdx] = append(inNodes[n.Pred.FieldIdx], n)
	}
	var terminals []*bdd.Node
	seen := make(map[StateID]struct{}, em.nodes)
	var walk func(n *bdd.Node)
	walk = func(n *bdd.Node) {
		if _, ok := seen[n.ID]; ok {
			return
		}
		seen[n.ID] = struct{}{}
		if n.IsTerminal() {
			terminals = append(terminals, n)
			return
		}
		for _, next := range [2]*bdd.Node{n.Hi, n.Lo} {
			if !next.IsTerminal() && next.Pred.FieldIdx != n.Pred.FieldIdx {
				addIn(next)
			}
			walk(next)
		}
	}
	for _, root := range d.Roots() {
		addIn(root)
		walk(root)
	}

	var delta entryDelta
	for _, fv := range d.Universe.Fields {
		// Fields no live rule predicates on have no in-node (the
		// incremental engine's universe holds every spec field); they are
		// pure pass-through stages, so don't materialize them.
		ins := inNodes[fv.Index]
		if len(ins) == 0 {
			continue
		}
		sort.Slice(ins, func(i, j int) bool { return ins[i].ID < ins[j].ID })
		t := &Table{
			Field:    fv,
			Defaults: make(map[StateID]StateID, len(ins)),
		}
		n, exact := 0, true
		for _, u := range ins {
			b := blocks[u.ID]
			if b == nil {
				b = emitBlock(d.Universe, u)
				blocks[u.ID] = b
				delta.added += b.size()
			} else {
				delta.reused += b.size()
			}
			n += len(b.entries)
			exact = exact && b.exact
		}
		t.Entries = make([]*Entry, 0, n)
		for _, u := range ins {
			b := blocks[u.ID]
			t.Entries = append(t.Entries, b.entries...)
			t.Defaults[u.ID] = b.def
		}
		classify(t, exact, opts)
		p.Stages = append(p.Stages, t)
	}

	// Leaf table. A leaf is a pure function of its terminal, so successive
	// programs of one Incremental share the *LeafEntry of every terminal
	// both reach, as they share entry blocks.
	sort.Slice(terminals, func(i, j int) bool { return terminals[i].ID < terminals[j].ID })
	leaves := make(map[StateID]*LeafEntry, len(terminals))
	p.Leaf = make([]*LeafEntry, len(terminals))
	for i, n := range terminals {
		le := em.leaves[n.ID]
		if le != nil {
			delta.reused++
		} else {
			delta.added++
			le = newLeaf(n)
		}
		leaves[n.ID] = le
		p.Leaf[i] = le
	}
	if err := p.Reindex(); err != nil {
		return nil, entryDelta{}, err
	}
	delta.removed = em.entries - delta.reused
	*em = emitter{blocks: blocks, leaves: leaves, entries: delta.added + delta.reused, nodes: len(seen)}
	return p, delta, nil
}

// newLeaf is terminal n's leaf row: its ports and custom actions, with
// the synthesized update directives split out.
func newLeaf(n *bdd.Node) *LeafEntry {
	le := &LeafEntry{In: n.ID}
	for _, c := range n.Actions.Custom {
		if c.Name == UpdateActionName {
			le.Updates = append(le.Updates, c.Args...)
		} else {
			le.Actions.Add(c)
		}
	}
	le.Actions.Merge(subscription.ActionSet{Ports: n.Actions.Ports})
	return le
}

// emitPaths walks every path from In node u through the field component,
// intersecting predicates (Algorithm 2 lines 5–9), appending one entry per
// Out node reached. The intersection steps go through the universe's
// refinement memo: the merge that built the diagram took the same steps,
// so most are lookups, and entries share the interned constraints.
func emitPaths(out []Entry, univ *bdd.Universe, u, n *bdd.Node, ctx int32, c match.Constraint) []Entry {
	if n.IsTerminal() || n.Pred.FieldIdx != u.Pred.FieldIdx {
		return append(out, Entry{In: u.ID, Match: c, Out: n.ID})
	}
	hi, hc := univ.RefineCtx(ctx, n.Pred, true)
	out = emitPaths(out, univ, u, n.Hi, hi, hc)
	lo, lc := univ.RefineCtx(ctx, n.Pred, false)
	return emitPaths(out, univ, u, n.Lo, lo, lc)
}

// classify applies the §V-E resource optimizations, choosing the table
// kind for a stage. allExact reports that every entry pins one value or
// is residual.
func classify(t *Table, allExact bool, opts Options) {
	if opts.DisableExactOpt {
		t.Kind = TernaryTable
		return
	}
	// An exact table stores one SRAM row per pinned value; residual
	// ("none of the values") entries realize as the table's default
	// action, so they don't disqualify the stage.
	if allExact {
		t.Kind = ExactTable
		return
	}
	// Low-resolution domain mapping: integer fields whose predicates use
	// few distinct constants can be mapped through a small value map.
	if !opts.DisableCompression && t.Field.Type() == spec.IntField {
		consts := make(map[int64]bool)
		for _, pr := range t.Field.Preds {
			consts[pr.Const.Int] = true
		}
		if len(consts) > 0 && len(consts) <= compressionThreshold {
			t.Kind = CompressedTable
			// The value map partitions the domain at each constant into
			// at most 2k+1 code ranges.
			t.MapEntries = 2*len(consts) + 1
			return
		}
	}
	t.Kind = TernaryTable
}

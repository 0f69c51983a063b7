package bdd

import (
	"fmt"
	"slices"
	"strings"

	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Node is a BDD node. Non-terminal nodes test Pred and branch to Hi
// (predicate true; the paper's solid arrow) or Lo (false; dashed arrow).
// Terminal nodes carry the merged ActionSet of every rule whose
// conjunction is satisfied along the path (multi-terminal BDD).
type Node struct {
	ID      int32
	Pred    *Pred // nil for terminals
	Hi, Lo  *Node
	Actions subscription.ActionSet // terminals only
}

// IsTerminal reports whether the node is a terminal.
func (n *Node) IsTerminal() bool { return n.Pred == nil }

func (n *Node) String() string {
	if n.IsTerminal() {
		return fmt.Sprintf("t%d{%s}", n.ID, n.Actions)
	}
	return fmt.Sprintf("n%d{%s ? n%d : n%d}", n.ID, n.Pred, n.Hi.ID, n.Lo.ID)
}

// BDD is a compiled rule set: the variable universe plus the root node of
// the reduced, ordered, multi-terminal decision diagram.
type BDD struct {
	Universe *Universe
	Root     *Node
	// DroppedRules counts rule disjuncts skipped because their
	// conjunction was syntactically unsatisfiable.
	DroppedRules int
}

// Options configure BDD construction.
type Options struct {
	// Order selects the field (variable) order heuristic.
	Order FieldOrder
	// DisablePruning turns off the domain-specific implication pruning
	// (reduction iii) — used only by the ablation benchmarks.
	DisablePruning bool
	// MaxNodes aborts construction when the node table exceeds this size
	// (0 = unlimited). Without reduction iii, range workloads can blow
	// up combinatorially; the cap turns an out-of-memory into an error.
	MaxNodes int
}

// ErrTooLarge is returned when construction exceeds Options.MaxNodes.
var ErrTooLarge = fmt.Errorf("bdd: construction exceeded the node limit")

// tooLarge is the panic sentinel carrying ErrTooLarge out of the
// recursive builder.
type tooLarge struct{}

// recoverTooLarge, deferred, turns a tooLarge panic into ErrTooLarge in
// *err and lets any other panic through.
func recoverTooLarge(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(tooLarge); !ok {
			panic(r)
		}
		*err = ErrTooLarge
	}
}

// merge OR-combines chains with balanced pairwise merging: OR-ing
// similar-sized diagrams keeps intermediate results small and memo hit
// rates high, unlike a left fold that re-walks one ever-growing diagram
// per rule. The merge runs in ascending input order — with pruning the
// result is merge-order sensitive (DESIGN §11).
func (b *builder) merge(chains []int32) int32 {
	for len(chains) > 1 {
		next := chains[:0]
		for i := 0; i+1 < len(chains); i += 2 {
			next = append(next, b.or(chains[i], chains[i+1]))
		}
		if len(chains)%2 == 1 {
			next = append(next, chains[len(chains)-1])
		}
		chains = next
	}
	if len(chains) == 1 {
		return chains[0]
	}
	return emptyTerm
}

// node is the kernel's form of a BDD node: twelve bytes, no pointers, held
// in builder.nodes at the index that is its ID. An internal node tests the
// predicate with Pred.ID pred and branches to node hi or lo; a terminal has
// pred == termPred and its action set at builder.terms[hi].
type node struct{ pred, hi, lo int32 }

const termPred int32 = -1

// term is a terminal's action set. Terminals are interned by the set's
// hash; next links the terminals of one hash (-1 ends the chain) and
// equality decides among them, so interning formats nothing.
type term struct {
	acts subscription.ActionSet
	next int32
}

// emptyTerm is the ∅-action terminal. It exists in every diagram (chain
// fallthrough), so newBuilder interns it first and its ID is fixed.
const emptyTerm int32 = 0

// builder is the BDD kernel: the node store and the hash-consing and memo
// tables of one construction. Everything the merge touches is an integer in
// a flat slice — nodes are IDs into nodes, every table is a table or a
// cache (see table.go) — so the or-merge probes no Go map, chases no
// pointer per node, and leaves the garbage collector nothing to scan but
// the terminals' action sets. *Node values exist only for diagrams handed
// out (materialise). A builder belongs to one goroutine at a time, like
// the Universe it builds against: nothing in it is locked (DESIGN §11).
//
// The or/apply hot path must not format strings either. Path contexts
// (per-field constraints) are interned to int32 IDs in the universe's
// persistent cache; context refinement and implication tests are memoized
// there by small integer tuples, so a refinement's constraint is built (and
// hashed, never formatted) once per distinct refinement rather than once
// per visit — and the results survive across the incremental engine's
// rebuilds.
type builder struct {
	u       *Universe
	pruning bool

	// nodes holds every node ever created, by ID — creation order, which
	// the engine's table diffing relies on — and terms the terminals'
	// action sets.
	nodes []node
	terms []term

	uniq     table // (pred, hi, lo) → internal node: reduction i
	termByH  table // (action-set hash, 0) → most recent terminal of that hash
	memo     table // (u, v, 0) → or(u, v), for the pairs merge combines
	computed cache // (u, v, context) → or(u, v) under the context, lossy
	termMemo table // (u, v, 0), u < v both terminals → merged terminal

	// materialised counts the *Node values handed out, and pending is
	// materialise's scratch: the nodes one call is about to build.
	materialised int
	pending      []int32

	// ports is the scratch a terminal merge unions two port lists into;
	// the union is copied only when it turns out to be a new terminal.
	ports []int

	// maxNodes aborts construction via a tooLarge panic when exceeded
	// (0 = unlimited).
	maxNodes int
}

// noCtx marks "no context" (pruning disabled or not yet entered a field).
const noCtx int32 = -1

func newBuilder(u *Universe, pruning bool) *builder {
	b := &builder{u: u, pruning: pruning}
	b.terminal(subscription.ActionSet{}) // emptyTerm
	return b
}

// terminal returns the hash-consed terminal for an action set (reduction
// i for terminals: equal action sets share one node). It copies acts when
// the set is new.
func (b *builder) terminal(acts subscription.ActionSet) int32 {
	if acts.IsEmpty() && len(b.nodes) > 0 {
		return emptyTerm
	}
	h := acts.Hash()
	head, ok := b.termByH.get(int32(h), int32(h>>32), 0)
	if !ok {
		head = -1
	}
	for id := head; id >= 0; {
		t := &b.terms[b.nodes[id].hi]
		if t.acts.Equal(acts) {
			return id
		}
		id = t.next
	}
	id := b.push(node{pred: termPred, hi: int32(len(b.terms))})
	b.terms = append(b.terms, term{acts: acts.Clone(), next: head})
	b.termByH.put(int32(h), int32(h>>32), 0, id)
	return id
}

// push appends a node and returns its ID, enforcing the node cap. The
// store doubles when full: append's 1.25× steps would copy a large store
// five times over.
func (b *builder) push(n node) int32 {
	if b.maxNodes > 0 && len(b.nodes) >= b.maxNodes {
		panic(tooLarge{})
	}
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = slices.Grow(b.nodes, max(len(b.nodes), 64))
	}
	b.nodes = append(b.nodes, n)
	return int32(len(b.nodes) - 1)
}

// mkNode returns the hash-consed internal node (reductions i and ii).
func (b *builder) mkNode(pred, hi, lo int32) int32 {
	if hi == lo {
		return hi // reduction ii: both branches agree
	}
	if id, ok := b.uniq.get(pred, hi, lo); ok {
		return id // reduction i: isomorphic node exists
	}
	id := b.push(node{pred, hi, lo})
	b.uniq.put(pred, hi, lo, id)
	return id
}

// materialise returns node root as a *Node, building it and every node
// below it that mat — indexed by node ID — does not hold yet, all in one
// allocation of exactly that many Nodes, laid out in DFS preorder (hi
// before lo). A materialised node's subgraph is materialised too, so the
// walk stops at the first node it has seen before: an engine that keeps
// mat between builds pays for the nodes a build added, and hands out one
// *Node per ID for its lifetime.
func (b *builder) materialise(mat []*Node, root int32) *Node {
	b.pending = b.collect(mat, b.pending[:0], root)
	chunk := make([]Node, len(b.pending))
	for i, id := range b.pending {
		mat[id] = &chunk[i]
	}
	for i, id := range b.pending {
		n, k := &chunk[i], b.nodes[id]
		n.ID = id
		if k.pred == termPred {
			n.Actions = b.terms[k.hi].acts
		} else {
			n.Pred, n.Hi, n.Lo = b.u.Preds[k.pred], mat[k.hi], mat[k.lo]
		}
	}
	b.materialised += len(chunk)
	return mat[root]
}

// collect appends the nodes under id that mat does not hold to pending,
// marking each in mat so that it is listed once.
func (b *builder) collect(mat []*Node, pending []int32, id int32) []int32 {
	if mat[id] != nil {
		return pending
	}
	mat[id] = unbuilt
	pending = append(pending, id)
	if k := b.nodes[id]; k.pred != termPred {
		pending = b.collect(mat, pending, k.hi)
		pending = b.collect(mat, pending, k.lo)
	}
	return pending
}

// unbuilt marks, in a materialisation index, a node collected but not yet
// built. It is never written.
var unbuilt = new(Node)

type lit struct {
	pred     *Pred
	positive bool
}

// chain builds the BDD for one conjunction: a linear chain of predicate
// nodes ordered by variable ID, terminating in the rule's action.
// Returns ok=false when the conjunction is unsatisfiable (a predicate
// used with both polarities, or a semantic per-field contradiction such
// as price > 20 ∧ price < 10). Literals implied by the preceding ones on
// the same field are elided.
func (b *builder) chain(nr subscription.NormalizedRule) (int32, bool, error) {
	lits := make([]lit, 0, len(nr.Conj))
atoms:
	for _, a := range nr.Conj {
		p, pos, err := b.u.Lookup(a)
		if err != nil {
			return 0, false, err
		}
		// Conjunctions are small; a linear scan beats two maps.
		for i := range lits {
			if lits[i].pred == p {
				if lits[i].positive != pos {
					return 0, false, nil // p and ¬p: unsatisfiable
				}
				continue atoms
			}
		}
		lits = append(lits, lit{pred: p, positive: pos})
	}
	slices.SortFunc(lits, func(a, b lit) int {
		if a.pred.FieldIdx != b.pred.FieldIdx {
			return a.pred.FieldIdx - b.pred.FieldIdx
		}
		return a.pred.Seq - b.pred.Seq
	})

	// Per-field satisfiability and redundancy pass (mirrors reduction
	// iii at the cheapest possible point). Contexts are interned and the
	// implication/refinement results memoized in the universe, so rules
	// sharing literal prefixes — the common case in generated workloads —
	// skip the constraint algebra entirely.
	if b.pruning {
		kept := lits[:0]
		ctx := noCtx
		ctxField := -1
		for _, l := range lits {
			if ctx == noCtx || ctxField != l.pred.FieldIdx {
				ctx, _ = b.u.FreshCtx(l.pred)
				ctxField = l.pred.FieldIdx
			}
			switch b.u.impliesCtx(ctx, l.pred) {
			case match.True:
				if !l.positive {
					return 0, false, nil
				}
				continue // redundant literal
			case match.False:
				if l.positive {
					return 0, false, nil
				}
				continue
			}
			ctx, _ = b.u.RefineCtx(ctx, l.pred, l.positive)
			kept = append(kept, l)
		}
		lits = kept
	}

	var acts subscription.ActionSet
	acts.Add(nr.Action)
	n := b.terminal(acts)
	for i := len(lits) - 1; i >= 0; i-- {
		if lits[i].positive {
			n = b.mkNode(int32(lits[i].pred.ID), n, emptyTerm)
		} else {
			n = b.mkNode(int32(lits[i].pred.ID), emptyTerm, n)
		}
	}
	return n, true, nil
}

// or computes the union of two diagrams: the resulting terminal action
// sets are the merged action sets of both inputs (§V-D: overlapping rules
// merge into multicast actions). Implication pruning happens here.
//
// The context argument is the interned within-field constraint: the
// conjunction of predicate outcomes taken so far on the field currently
// being tested. Constraints on earlier fields are irrelevant once the
// variable order moves past them, so one field's context suffices (and
// keeps memoization effective).
//
// The merge tree's pairs — the calls merge makes — are memoized exactly:
// they are what an incremental rebuild finds again. The recursion's
// subproblems go to the lossy computed table, sized to the node store: most
// of them never recur, and a table that fits in L2 still finds nearly all
// that do (DESIGN §11).
func (b *builder) or(u, v int32) int32 {
	if r, ok := b.memo.get(u, v, 0); ok {
		return r
	}
	b.computed.fit(len(b.nodes))
	r := b.orCtx(u, v, pathCtx{id: noCtx})
	b.memo.put(u, v, 0, r)
	return r
}

// pathCtx is the within-field context a merge carries down its
// recursion: the interned ID (what the memo keys on) together with the
// field it constrains and the constraint itself, so the recursion reads
// neither back from the universe's cache.
type pathCtx struct {
	id    int32
	field int32
	c     match.Constraint
}

func (b *builder) freshPath(p *Pred) pathCtx {
	id, c := b.u.FreshCtx(p)
	return pathCtx{id: id, field: int32(p.FieldIdx), c: c}
}

func (b *builder) refinePath(ctx pathCtx, p *Pred, outcome bool) pathCtx {
	id, c := b.u.RefineCtx(ctx.id, p, outcome)
	return pathCtx{id: id, field: ctx.field, c: c}
}

// orCtx reads its operands by value: the recursion appends to b.nodes, so
// no pointer into it is held across a call.
func (b *builder) orCtx(u, v int32, ctx pathCtx) int32 {
	nu, nv := b.nodes[u], b.nodes[v]
	if nu.pred == termPred && nv.pred == termPred {
		return b.orTerminals(u, v)
	}
	p := b.topPred(nu, nv)
	pid := int32(p.ID)
	if !b.pruning {
		if r, ok := b.computed.get(u, v, noCtx); ok {
			return r
		}
		hi := b.orCtx(restrict(u, nu, pid, true), restrict(v, nv, pid, true), ctx)
		lo := b.orCtx(restrict(u, nu, pid, false), restrict(v, nv, pid, false), ctx)
		r := b.mkNode(pid, hi, lo)
		b.computed.put(u, v, noCtx, r)
		return r
	}

	// Fast-forward every predicate the context already decides
	// (reduction iii) in a tight loop: no memoization or allocation per
	// skipped node, and the implication test is a direct call on the
	// constraint the context carries — a handful of compares, where the
	// memoized test would put a table probe on the hottest loop in the
	// compiler. This is what keeps merging O(100k) equality chains
	// (hICN-style workloads) tractable — a pinned field value otherwise
	// walks the whole chain through the memo machinery.
	if ctx.id == noCtx || ctx.field != int32(p.FieldIdx) {
		ctx = b.freshPath(p)
	}
	for {
		switch ctx.c.Implies(p.Rel, p.Const) {
		case match.True:
			u, v = restrict(u, nu, pid, true), restrict(v, nv, pid, true)
		case match.False:
			u, v = restrict(u, nu, pid, false), restrict(v, nv, pid, false)
		default:
			if r, ok := b.computed.get(u, v, ctx.id); ok {
				return r
			}
			hi := b.orCtx(restrict(u, nu, pid, true), restrict(v, nv, pid, true), b.refinePath(ctx, p, true))
			lo := b.orCtx(restrict(u, nu, pid, false), restrict(v, nv, pid, false), b.refinePath(ctx, p, false))
			r := b.mkNode(pid, hi, lo)
			b.computed.put(u, v, ctx.id, r)
			return r
		}
		nu, nv = b.nodes[u], b.nodes[v]
		if nu.pred == termPred && nv.pred == termPred {
			return b.orTerminals(u, v)
		}
		p = b.topPred(nu, nv)
		pid = int32(p.ID)
		if ctx.field != int32(p.FieldIdx) {
			ctx = b.freshPath(p)
		}
	}
}

// orTerminals returns the terminal carrying both terminals' actions.
// or(t, t) and or(t, ∅) are t itself; any other pair is merged once and
// memoized.
func (b *builder) orTerminals(u, v int32) int32 {
	switch {
	case u == v || v == emptyTerm:
		return u
	case u == emptyTerm:
		return v
	case u > v:
		u, v = v, u
	}
	if r, ok := b.termMemo.get(u, v, 0); ok {
		return r
	}
	au, av := b.terms[b.nodes[u].hi].acts, b.terms[b.nodes[v].hi].acts
	b.ports = subscription.UnionPorts(b.ports[:0], au.Ports, av.Ports)
	merged := subscription.ActionSet{Ports: b.ports}
	if len(au.Custom)+len(av.Custom) > 0 {
		merged.Custom = slices.Clone(au.Custom)
		for _, c := range av.Custom {
			merged.Add(c)
		}
	}
	r := b.terminal(merged)
	b.termMemo.put(u, v, 0, r)
	return r
}

// topPred returns the smallest-ordered predicate tested at u or v, at
// least one of which is internal.
func (b *builder) topPred(u, v node) *Pred {
	switch {
	case u.pred == termPred:
		return b.u.Preds[v.pred]
	case v.pred == termPred || u.pred == v.pred:
		return b.u.Preds[u.pred]
	}
	pu, pv := b.u.Preds[u.pred], b.u.Preds[v.pred]
	if pv.Less(pu) {
		return pv
	}
	return pu
}

// restrict specializes node id (whose record is n) to a known outcome of
// the predicate with ID pred.
func restrict(id int32, n node, pred int32, outcome bool) int32 {
	if n.pred != pred {
		return id
	}
	if outcome {
		return n.hi
	}
	return n.lo
}

// Eval walks the diagram for a message, returning the merged action set —
// semantically identical to brute-force rule evaluation, in at most one
// predicate test per node on a single root-to-terminal path.
func (d *BDD) Eval(m *spec.Message, st subscription.StateReader) subscription.ActionSet {
	n := d.Root
	for !n.IsTerminal() {
		if n.Pred.Eval(m, st) {
			n = n.Hi
		} else {
			n = n.Lo
		}
	}
	return n.Actions
}

// Reachable returns all nodes reachable from the root, in a deterministic
// (DFS preorder, hi before lo) order.
func (d *BDD) Reachable() []*Node {
	var out []*Node
	var seen []bool // by node ID
	var walk func(n *Node)
	walk = func(n *Node) {
		if int(n.ID) >= len(seen) {
			seen = slices.Grow(seen, int(n.ID)+1-len(seen))[:n.ID+1]
		}
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		out = append(out, n)
		if !n.IsTerminal() {
			walk(n.Hi)
			walk(n.Lo)
		}
	}
	walk(d.Root)
	return out
}

// Stats summarizes a BDD for the memory-efficiency evaluation (Fig. 12).
type Stats struct {
	// Nodes is the number of reachable nodes (internal + terminal).
	Nodes int
	// Internal is the number of reachable non-terminal nodes.
	Internal int
	// Terminals is the number of distinct reachable action sets.
	Terminals int
	// PerField maps field key → reachable node count in that component.
	PerField map[string]int
}

// Stats computes reachable-node statistics.
func (d *BDD) Stats() Stats {
	s := Stats{PerField: make(map[string]int)}
	for _, n := range d.Reachable() {
		s.Nodes++
		if n.IsTerminal() {
			s.Terminals++
		} else {
			s.Internal++
			s.PerField[d.Universe.Fields[n.Pred.FieldIdx].Key()]++
		}
	}
	return s
}

// Dot renders the diagram in Graphviz format (solid = true branch,
// dashed = false branch, mirroring the paper's Fig. 5).
func (d *BDD) Dot() string {
	var b strings.Builder
	b.WriteString("digraph bdd {\n  rankdir=TB;\n")
	for _, n := range d.Reachable() {
		if n.IsTerminal() {
			label := n.Actions.Key()
			if n.Actions.IsEmpty() {
				label = "drop"
			}
			fmt.Fprintf(&b, "  n%d [shape=box,label=%q];\n", n.ID, label)
			continue
		}
		fmt.Fprintf(&b, "  n%d [shape=ellipse,label=%q];\n", n.ID, n.Pred.String())
		fmt.Fprintf(&b, "  n%d -> n%d [style=solid];\n", n.ID, n.Hi.ID)
		fmt.Fprintf(&b, "  n%d -> n%d [style=dashed];\n", n.ID, n.Lo.ID)
	}
	b.WriteString("}\n")
	return b.String()
}

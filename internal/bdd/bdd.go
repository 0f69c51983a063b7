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

// Build compiles rules into a BDD. Rules are normalized to DNF first;
// each disjunct becomes an independent conjunction chain OR-ed into the
// diagram (§V-C).
func Build(sp *spec.Spec, rules []*subscription.Rule, opts Options) (*BDD, error) {
	var normalized []subscription.NormalizedRule
	for _, r := range rules {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			return nil, err
		}
		normalized = append(normalized, nrs...)
	}
	return BuildNormalized(sp, normalized, opts)
}

// BuildNormalized compiles already-normalized rules into a BDD.
func BuildNormalized(sp *spec.Spec, rules []subscription.NormalizedRule, opts Options) (d *BDD, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(tooLarge); ok {
				d, err = nil, ErrTooLarge
				return
			}
			panic(r)
		}
	}()
	u := NewUniverse(sp, rules, opts.Order)
	b := newBuilder(u, !opts.DisablePruning, 0)
	b.maxNodes = opts.MaxNodes

	dropped := 0
	chains := make([]*Node, 0, len(rules))
	seenChain := make(map[*Node]bool, len(rules))
	for i := range rules {
		n, ok, cerr := b.chain(rules[i])
		if cerr != nil {
			return nil, cerr
		}
		if !ok {
			dropped++
			continue
		}
		// Hash-consing makes identical rules the same chain node;
		// OR(x, x) = x, so duplicates are skipped outright.
		if seenChain[n] {
			continue
		}
		seenChain[n] = true
		chains = append(chains, n)
	}
	root := b.merge(chains)
	d = &BDD{Universe: u, Root: root, DroppedRules: dropped}
	// One builder goroutine already makes creation-order IDs deterministic;
	// batch diagrams are renumbered to the dense DFS order all the same,
	// because the program's state numbering — and with it the prover's
	// path enumeration and the counterexample goldens — is read off these
	// IDs. Engine builds are never renumbered: incremental table diffing
	// relies on creation-order ID stability across rebuilds.
	d.renumber()
	return d, nil
}

// merge OR-combines chains with balanced pairwise merging: OR-ing
// similar-sized diagrams keeps intermediate results small and memo hit
// rates high, unlike a left fold that re-walks one ever-growing diagram
// per rule. The merge runs in ascending input order — with pruning the
// result is merge-order sensitive (DESIGN §11).
func (b *builder) merge(chains []*Node) *Node {
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
	return b.terminal(subscription.ActionSet{})
}

// renumber reassigns node IDs in DFS preorder (hi before lo) from the
// root: dense over the reachable nodes and derived purely from the
// diagram's structure.
func (d *BDD) renumber() {
	next := int32(0)
	seen := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		n.ID = next
		next++
		if !n.IsTerminal() {
			walk(n.Hi)
			walk(n.Lo)
		}
	}
	walk(d.Root)
}

// builder holds the hash-consing tables during construction. It belongs
// to one goroutine at a time, like the Universe it builds against: nothing
// in it is locked (DESIGN §11).
//
// Performance notes: the or/apply hot path must not format strings. Path
// contexts (per-field constraints) are interned to int32 IDs in the
// universe's persistent cache; context refinement and implication tests
// are memoized there by small integer tuples, so a refinement's
// constraint is built (and hashed, never formatted) once per distinct
// refinement rather than once per visit — and the results survive across
// the incremental engine's rebuilds.
type builder struct {
	u       *Universe
	pruning bool

	nextID int32
	// uniq is the hash-cons unique table. Nodes live in fixed-capacity
	// slabs that never grow in place, so node pointers stay valid for the
	// builder's lifetime.
	uniq map[[3]int32]*Node
	slab []Node

	terminals map[string]*Node
	termSlab  []Node
	empty     *Node // cached ∅-action terminal (always ID 0)

	// memo maps an or-merge to its result's node ID, and memoNode that ID
	// back to the node. The indirection keeps pointers out of the memo: it
	// is by far the engine's largest table and lives as long as the engine,
	// and a map without pointers is one the garbage collector never scans.
	memo     map[memoKey]int32
	memoNode []*Node
	termMemo map[[2]int32]*Node

	// maxNodes aborts construction via a tooLarge panic when exceeded
	// (0 = unlimited).
	maxNodes int
}

const slabSize = 1024

type memoKey struct {
	u, v, ctx int32
}

// noCtx marks "no context" (pruning disabled or not yet entered a field).
const noCtx int32 = -1

// newBuilder returns an empty builder; sizeHint is the number of nodes
// it should hold without rehashing its tables (0: grow from empty).
func newBuilder(u *Universe, pruning bool, sizeHint int) *builder {
	b := &builder{
		u:         u,
		pruning:   pruning,
		uniq:      make(map[[3]int32]*Node, sizeHint),
		terminals: make(map[string]*Node),
		memo:      make(map[memoKey]int32, 2*sizeHint),
		termMemo:  make(map[[2]int32]*Node),
	}
	// The empty terminal exists in every diagram (chain fallthrough);
	// interning it eagerly gives the hot path a pointer check in place of
	// a key build and map probe, and fixes its ID at 0.
	b.empty = b.terminal(subscription.ActionSet{})
	return b
}

// terminal returns the hash-consed terminal for an action set
// (reduction i for terminals: equal action sets share one node).
func (b *builder) terminal(acts subscription.ActionSet) *Node {
	if acts.IsEmpty() && b.empty != nil {
		return b.empty
	}
	key := acts.Key()
	if n, ok := b.terminals[key]; ok {
		return n
	}
	if len(b.termSlab) == cap(b.termSlab) {
		b.termSlab = make([]Node, 0, 64)
	}
	b.termSlab = append(b.termSlab, Node{ID: b.allocID(), Actions: acts})
	n := &b.termSlab[len(b.termSlab)-1]
	b.terminals[key] = n
	return n
}

// allocID hands out the next node ID, enforcing the node cap.
func (b *builder) allocID() int32 {
	id := b.nextID
	if b.maxNodes > 0 && int(id) >= b.maxNodes {
		panic(tooLarge{})
	}
	b.nextID++
	return id
}

// mkNode returns the hash-consed internal node (reductions i and ii).
func (b *builder) mkNode(p *Pred, hi, lo *Node) *Node {
	if hi == lo {
		return hi // reduction ii: both branches agree
	}
	key := [3]int32{int32(p.ID), hi.ID, lo.ID}
	if n, ok := b.uniq[key]; ok {
		return n // reduction i: isomorphic node exists
	}
	id := b.allocID()
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Node, 0, slabSize)
	}
	b.slab = append(b.slab, Node{ID: id, Pred: p, Hi: hi, Lo: lo})
	n := &b.slab[len(b.slab)-1]
	b.uniq[key] = n
	return n
}

// nodeCount reports how many nodes the builder has allocated.
func (b *builder) nodeCount() int { return int(b.nextID) }

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
func (b *builder) chain(nr subscription.NormalizedRule) (*Node, bool, error) {
	lits := make([]lit, 0, len(nr.Conj))
atoms:
	for _, a := range nr.Conj {
		p, pos, err := b.u.Lookup(a)
		if err != nil {
			return nil, false, err
		}
		// Conjunctions are small; a linear scan beats two maps.
		for i := range lits {
			if lits[i].pred == p {
				if lits[i].positive != pos {
					return nil, false, nil // p and ¬p: unsatisfiable
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
					return nil, false, nil
				}
				continue // redundant literal
			case match.False:
				if l.positive {
					return nil, false, nil
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
	node := b.terminal(acts)
	empty := b.empty
	for i := len(lits) - 1; i >= 0; i-- {
		if lits[i].positive {
			node = b.mkNode(lits[i].pred, node, empty)
		} else {
			node = b.mkNode(lits[i].pred, empty, node)
		}
	}
	return node, true, nil
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
func (b *builder) or(u, v *Node) *Node {
	return b.orCtx(u, v, pathCtx{id: noCtx})
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

func (b *builder) orCtx(u, v *Node, ctx pathCtx) *Node {
	if u.IsTerminal() && v.IsTerminal() {
		tk := [2]int32{u.ID, v.ID}
		if u.ID > v.ID {
			tk = [2]int32{v.ID, u.ID}
		}
		if n, ok := b.termMemo[tk]; ok {
			return n
		}
		merged := u.Actions.Clone()
		merged.Merge(v.Actions)
		n := b.terminal(merged)
		b.termMemo[tk] = n
		return n
	}
	p := topPred(u, v)
	if !b.pruning {
		mk := memoKey{u: u.ID, v: v.ID, ctx: noCtx}
		if id, ok := b.memo[mk]; ok {
			return b.memoNode[id]
		}
		hi := b.orCtx(restrict(u, p, true), restrict(v, p, true), ctx)
		lo := b.orCtx(restrict(u, p, false), restrict(v, p, false), ctx)
		result := b.mkNode(p, hi, lo)
		b.memoize(mk, result)
		return result
	}

	// Fast-forward every predicate the context already decides
	// (reduction iii) in a tight loop: no memoization or allocation per
	// skipped node, and the implication test is a direct call on the
	// constraint the context carries — a handful of compares, where the
	// memoized test would put a map probe on the hottest loop in the
	// compiler. This is what keeps merging O(100k) equality chains
	// (hICN-style workloads) tractable — a pinned field value otherwise
	// walks the whole chain through the memo machinery.
	if ctx.id == noCtx || ctx.field != int32(p.FieldIdx) {
		ctx = b.freshPath(p)
	}
	for {
		switch ctx.c.Implies(p.Rel, p.Const) {
		case match.True:
			u, v = restrict(u, p, true), restrict(v, p, true)
		case match.False:
			u, v = restrict(u, p, false), restrict(v, p, false)
		default:
			mk := memoKey{u: u.ID, v: v.ID, ctx: ctx.id}
			if id, ok := b.memo[mk]; ok {
				return b.memoNode[id]
			}
			hi := b.orCtx(restrict(u, p, true), restrict(v, p, true), b.refinePath(ctx, p, true))
			lo := b.orCtx(restrict(u, p, false), restrict(v, p, false), b.refinePath(ctx, p, false))
			result := b.mkNode(p, hi, lo)
			b.memoize(mk, result)
			return result
		}
		if u.IsTerminal() && v.IsTerminal() {
			return b.orCtx(u, v, ctx) // terminal merge path
		}
		p = topPred(u, v)
		if ctx.field != int32(p.FieldIdx) {
			ctx = b.freshPath(p)
		}
	}
}

// memoize records the result of one or-merge.
func (b *builder) memoize(mk memoKey, result *Node) {
	if int(result.ID) >= len(b.memoNode) {
		b.memoNode = slices.Grow(b.memoNode, int(result.ID)+1-len(b.memoNode))[:int(result.ID)+1]
	}
	b.memoNode[result.ID] = result
	b.memo[mk] = result.ID
}

// topPred returns the smallest-ordered predicate tested at u or v.
func topPred(u, v *Node) *Pred {
	switch {
	case u.IsTerminal():
		return v.Pred
	case v.IsTerminal():
		return u.Pred
	case v.Pred.Less(u.Pred):
		return v.Pred
	default:
		return u.Pred
	}
}

// restrict specializes a node to a known outcome of predicate p.
func restrict(n *Node, p *Pred, outcome bool) *Node {
	if n.IsTerminal() || n.Pred.ID != p.ID {
		return n
	}
	if outcome {
		return n.Hi
	}
	return n.Lo
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
	seen := make(map[int32]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
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

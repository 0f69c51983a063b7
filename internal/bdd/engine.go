package bdd

import (
	"slices"
	"unsafe"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// Engine is the incremental BDD builder the paper sketches for highly
// dynamic filter sets (§V: "Prior work has demonstrated that such
// incremental algorithms are feasible. BDDs — our primary internal data
// structure — can leverage memoization"). It keeps the hash-consing and
// apply-memoization tables alive across subscription changes: adding or
// removing a rule re-merges the per-rule chains, and every unchanged
// subgraph is a cache hit, so recompilation cost tracks the size of the
// change rather than the size of the rule set. Node IDs are stable
// across rebuilds, which downstream table diffing relies on (§V's
// "table entry re-use").
type Engine struct {
	u      *Universe
	b      *builder
	chains map[int][]int32 // rule ID → chain nodes (one per satisfiable disjunct)
	order  []int           // rule IDs with a chain, ascending: the merge order
	// dropped counts, per rule ID, the disjuncts skipped as unsatisfiable;
	// ndropped is their sum.
	dropped  map[int]int
	ndropped int
	// mat holds the *Node of every node a Build has handed out, by ID: one
	// per ID for the engine's lifetime, so two builds that reach a node
	// return the same pointer.
	mat []*Node
	// Build's scratch, kept between calls: the chain list it merges (in
	// place) and the chain IDs already on it.
	merging []int32
	seen    map[int32]struct{}
}

// NewEngine creates an empty incremental engine for a spec. The
// universe is pre-seeded with every validity bit and subscribable
// packet field in CanonicalOrder, and predicates within a field keep
// the canonical (relation, constant) order as they arrive, so the
// variable order — and therefore the compiled program's structure — is
// independent of rule arrival history for stateless rule sets. Only
// stateful aggregates append in first-reference order. CanonicalOrder is
// the only order an engine builds — the others depend on which fields or
// how many predicates the rules hold, which arrival changes — so
// opts.Order must be it (compiler.NewIncremental rejects anything else);
// pruning follows opts.DisablePruning.
func NewEngine(sp *spec.Spec, opts Options) *Engine {
	u := NewUniverse(sp, nil, CanonicalOrder)
	u.seedSpecFields()
	return &Engine{
		u:       u,
		b:       newBuilder(u, !opts.DisablePruning),
		chains:  make(map[int][]int32),
		dropped: make(map[int]int),
		seen:    make(map[int32]struct{}),
	}
}

// Universe exposes the growing predicate universe.
func (e *Engine) Universe() *Universe { return e.u }

// Add inserts normalized rules. Disjuncts of existing rule IDs
// accumulate (a rule may be added piecewise).
func (e *Engine) Add(rules ...subscription.NormalizedRule) error {
	for _, nr := range rules {
		chain, ok, err := e.chainExtend(nr)
		if err != nil {
			return err
		}
		if !ok {
			e.dropped[nr.RuleID]++
			e.ndropped++
			continue
		}
		if _, exists := e.chains[nr.RuleID]; !exists {
			i, _ := slices.BinarySearch(e.order, nr.RuleID)
			e.order = slices.Insert(e.order, i, nr.RuleID)
		}
		e.chains[nr.RuleID] = append(e.chains[nr.RuleID], chain)
	}
	return nil
}

// Remove deletes every disjunct of a rule ID, the unsatisfiable ones Add
// only counted included. It reports whether the rule existed.
func (e *Engine) Remove(ruleID int) bool {
	n, wasDropped := e.dropped[ruleID]
	e.ndropped -= n
	delete(e.dropped, ruleID)
	if _, ok := e.chains[ruleID]; !ok {
		return wasDropped
	}
	delete(e.chains, ruleID)
	if i, ok := slices.BinarySearch(e.order, ruleID); ok {
		e.order = slices.Delete(e.order, i, i+1)
	}
	return true
}

// Rules returns the IDs of the rules with at least one satisfiable
// disjunct, ascending.
func (e *Engine) Rules() []int { return slices.Clone(e.order) }

// Build merges the live chains into a BDD. Thanks to the persistent
// memo tables, unchanged prefixes of the merge tree are cache hits.
// Chains merge in ascending rule-ID order — the same order a batch
// compile of the ID-sorted rule set uses — so with pruning enabled
// (where the result is merge-order sensitive) an incrementally
// maintained diagram stays structurally identical to a from-scratch
// build of the surviving rules, whatever the add/remove history.
func (e *Engine) Build() *BDD {
	chains := e.merging[:0]
	clear(e.seen)
	for _, id := range e.order {
		for _, c := range e.chains[id] {
			if _, dup := e.seen[c]; dup {
				continue
			}
			e.seen[c] = struct{}{}
			chains = append(chains, c)
		}
	}
	e.merging = chains
	root := e.b.merge(chains)
	// Engine diagrams keep their creation-order node IDs (no DFS
	// renumbering): downstream table diffing relies on IDs being stable
	// across rebuilds of one engine.
	if n := len(e.b.nodes); n > len(e.mat) {
		e.mat = slices.Grow(e.mat, n-len(e.mat))[:n]
	}
	return &BDD{Universe: e.u, Root: e.b.materialise(e.mat, root), DroppedRules: e.ndropped}
}

// CacheSize reports the persistent table sizes (for Compact decisions).
func (e *Engine) CacheSize() (nodes, memoEntries int) {
	return len(e.b.nodes), e.b.memo.len()
}

// CacheBytes reports the memory the engine retains across rebuilds,
// exactly: the capacities of the node store, of the builder's and the
// universe's tables, of the materialisation index and of the ID scratch
// lists, times their element sizes, plus the nodes materialised so far.
// What the terminals' action sets and the contexts' constraints point to is
// not counted, nor are the per-rule maps, which grow with the live rules
// and not with the batches applied.
func (e *Engine) CacheBytes() int {
	b := e.b
	return cap(b.nodes)*int(unsafe.Sizeof(node{})) +
		cap(b.terms)*int(unsafe.Sizeof(term{})) +
		b.uniq.bytes() + b.termByH.bytes() + b.memo.bytes() + b.termMemo.bytes() +
		(cap(b.pending)+cap(e.merging))*4 +
		cap(e.mat)*int(unsafe.Sizeof((*Node)(nil))) +
		b.materialised*int(unsafe.Sizeof(Node{})) +
		e.u.cache.bytes()
}

// chainExtend is chain() against the growable universe.
func (e *Engine) chainExtend(nr subscription.NormalizedRule) (int32, bool, error) {
	for _, a := range nr.Conj {
		e.u.Extend(a) // ensure predicates exist before ordering literals
	}
	return e.b.chain(nr)
}

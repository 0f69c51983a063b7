package bdd

import (
	"slices"

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
	u       *Universe
	b       *builder
	chains  map[int][]*Node // rule ID → chain nodes (one per disjunct)
	order   []int           // live rule IDs, ascending: the merge order
	dropped int
	// Build's scratch, kept between calls: the chain list it merges (in
	// place) and the chain IDs already on it.
	merging []*Node
	seen    map[int32]struct{}
}

// NewEngine creates an empty incremental engine for a spec. The
// universe is pre-seeded with every validity bit and subscribable
// packet field in canonical spec order, and predicates within a field
// keep the canonical (relation, constant) order as they arrive, so the
// variable order — and therefore the compiled program's structure — is
// independent of rule arrival history for stateless rule sets. Only
// stateful aggregates append in first-reference order. opts.Order is
// not used; pruning follows opts.DisablePruning.
func NewEngine(sp *spec.Spec, opts Options) *Engine {
	u := NewUniverse(sp, nil, opts.Order)
	u.seedSpecFields()
	return &Engine{
		u:      u,
		b:      newBuilder(u, !opts.DisablePruning, engineSizeHint),
		chains: make(map[int][]*Node),
		seen:   make(map[int32]struct{}),
	}
}

// engineSizeHint presizes an engine's unique and memo tables for a few
// hundred rules' worth of merging — what one control-plane switch holds
// after its first batches — instead of growing them from empty through
// a dozen rehashes.
const engineSizeHint = 1 << 12

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
			e.dropped++
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

// Remove deletes every disjunct of a rule ID. It reports whether the
// rule existed.
func (e *Engine) Remove(ruleID int) bool {
	if _, ok := e.chains[ruleID]; !ok {
		return false
	}
	delete(e.chains, ruleID)
	if i, ok := slices.BinarySearch(e.order, ruleID); ok {
		e.order = slices.Delete(e.order, i, i+1)
	}
	return true
}

// Rules returns the live rule IDs, ascending.
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
			if _, dup := e.seen[c.ID]; dup {
				continue
			}
			e.seen[c.ID] = struct{}{}
			chains = append(chains, c)
		}
	}
	e.merging = chains
	// Engine diagrams keep their creation-order node IDs (no DFS
	// renumbering): downstream table diffing relies on IDs being stable
	// across rebuilds of one engine.
	return &BDD{Universe: e.u, Root: e.b.merge(chains), DroppedRules: e.dropped}
}

// CacheSize reports the persistent table sizes (for Compact decisions).
func (e *Engine) CacheSize() (nodes, memoEntries int) {
	return e.b.nodeCount(), len(e.b.memo)
}

// chainExtend is chain() against the growable universe.
func (e *Engine) chainExtend(nr subscription.NormalizedRule) (*Node, bool, error) {
	for _, a := range nr.Conj {
		e.u.Extend(a) // ensure predicates exist before ordering literals
	}
	return e.b.chain(nr)
}

package bdd

import (
	"cmp"
	"slices"
	"unsafe"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// Engine is the incremental BDD builder the paper sketches for highly
// dynamic filter sets (§V: "Prior work has demonstrated that such
// incremental algorithms are feasible. BDDs — our primary internal data
// structure — can leverage memoization"). It keeps the hash-consing table
// and the merge tree's memo alive across subscription changes: adding or
// removing a rule re-merges the per-rule chains, and every unchanged pair
// of the merge tree is a memo hit, so recompilation cost tracks the size
// of the change rather than the size of the rule set. Node IDs are stable
// across rebuilds, which downstream table diffing relies on (§V's
// "table entry re-use"). The engine has one node store: MergeParts tries
// its part merges there too, so a part's merge reuses what its trials
// merged, and Options.MaxNodes bounds all of it. A one-shot build is an
// engine merged once.
type Engine struct {
	u *Universe
	b *builder
	// live holds the chain of every satisfiable disjunct of every live
	// rule, sorted by rule ID — the merge order — and by arrival within a
	// rule.
	live []ruleChain
	// dropped counts, per rule ID, the disjuncts skipped as unsatisfiable;
	// ndropped is their sum.
	dropped  map[int]int
	ndropped int
	// mat holds the *Node of every node a Merge has handed out, by ID: one
	// per ID for the engine's lifetime, so two merges that reach a node
	// return the same pointer.
	mat []*Node
	// Merge's scratch, kept between calls: the chain list it merges (in
	// place) and the chain IDs already on it.
	merging []int32
	seen    map[int32]struct{}
	// MergeParts's trial sizing (parts.go): reachable-node counts by root;
	// mark and stamp are a count's visited set, stack its work list.
	sizes map[int32]int
	mark  []uint32
	stamp uint32
	stack []int32
	opts  Options
}

// ruleChain is one satisfiable disjunct of a live rule: its chain node
// and the fields it tests.
type ruleChain struct {
	rule   int
	chain  int32
	fields fieldSet
}

// NewEngine creates an empty incremental engine for a spec. Its universe
// is seeded with every validity bit and subscribable packet field in
// opts.Order (NewUniverse), and predicates within a field keep the
// canonical (relation, constant) order as they arrive, so the variable
// order — and therefore the compiled program's structure — does not depend
// on rule arrival history. Pruning follows opts.DisablePruning, and a
// builder that would hold more than opts.MaxNodes nodes fails the Add or
// Merge that tried with ErrTooLarge.
func NewEngine(sp *spec.Spec, opts Options) *Engine {
	u := NewUniverse(sp, opts.Order)
	b := newBuilder(u, !opts.DisablePruning)
	b.maxNodes = opts.MaxNodes
	return &Engine{
		u:       u,
		b:       b,
		dropped: make(map[int]int),
		seen:    make(map[int32]struct{}),
		opts:    opts,
	}
}

// Universe exposes the growing predicate universe.
func (e *Engine) Universe() *Universe { return e.u }

// Add inserts normalized rules. Disjuncts of existing rule IDs
// accumulate (a rule may be added piecewise). The fields the rules
// introduce join the universe together (Universe.Extend), and an atom of
// no known relation fails the call before any rule is added.
func (e *Engine) Add(rules ...subscription.NormalizedRule) (err error) {
	defer recoverTooLarge(&err)
	if err := e.u.Extend(rules); err != nil {
		return err
	}
	for _, nr := range rules {
		chain, ok, err := e.b.chain(nr)
		if err != nil {
			return err
		}
		if !ok {
			e.dropped[nr.RuleID]++
			e.ndropped++
			continue
		}
		at := len(e.live)
		if at > 0 && e.live[at-1].rule > nr.RuleID {
			at = e.search(nr.RuleID + 1)
		}
		e.live = slices.Insert(e.live, at, ruleChain{rule: nr.RuleID, chain: chain, fields: e.fieldsOf(nr)})
	}
	return nil
}

// search returns the index of the first live chain whose rule ID is at
// least id.
func (e *Engine) search(id int) int {
	i, _ := slices.BinarySearchFunc(e.live, id, func(c ruleChain, id int) int { return cmp.Compare(c.rule, id) })
	return i
}

// Remove deletes every disjunct of a rule ID, the unsatisfiable ones Add
// only counted included. It reports whether the rule existed.
func (e *Engine) Remove(ruleID int) bool {
	n, wasDropped := e.dropped[ruleID]
	e.ndropped -= n
	delete(e.dropped, ruleID)
	lo, hi := e.search(ruleID), e.search(ruleID+1)
	e.live = slices.Delete(e.live, lo, hi)
	return wasDropped || lo < hi
}

// Rules returns the IDs of the rules with at least one satisfiable
// disjunct, ascending.
func (e *Engine) Rules() []int {
	var ids []int
	for _, c := range e.live {
		if len(ids) == 0 || ids[len(ids)-1] != c.rule {
			ids = append(ids, c.rule)
		}
	}
	return ids
}

// Merge merges the live chains into a BDD. Thanks to the merge tree's
// persistent memo, unchanged pairs of the tree are memo hits.
// Chains merge in ascending rule-ID order, so with pruning enabled (where
// the result is merge-order sensitive) an incrementally maintained
// diagram stays structurally identical to a fresh engine's of the
// surviving rules, whatever the add/remove history. Node IDs are the
// builder's creation order, never renumbered: table diffing relies on
// them staying put across merges.
func (e *Engine) Merge() (d *BDD, err error) {
	defer recoverTooLarge(&err)
	root := e.mergeLive(nil)
	return &BDD{Universe: e.u, Parts: []Part{{Root: e.materialise(root)}}, DroppedRules: e.ndropped}, nil
}

// mergeLive merges the distinct chains of the live disjuncts whose
// indices keep accepts (every one when keep is nil), in rule-ID order:
// one balanced merge tree.
func (e *Engine) mergeLive(keep func(i int) bool) int32 {
	chains := e.merging[:0]
	clear(e.seen)
	for i, c := range e.live {
		if keep != nil && !keep(i) {
			continue
		}
		if _, dup := e.seen[c.chain]; dup {
			continue
		}
		e.seen[c.chain] = struct{}{}
		chains = append(chains, c.chain)
	}
	e.merging = chains
	return e.b.merge(chains)
}

// materialise returns the builder's node root as a *Node.
func (e *Engine) materialise(root int32) *Node {
	if n := len(e.b.nodes); n > len(e.mat) {
		e.mat = slices.Grow(e.mat, n-len(e.mat))[:n]
	}
	return e.b.materialise(e.mat, root)
}

// Build is Merge for an engine without a node budget, which cannot fail
// (a budgeted one that does returns nil).
func (e *Engine) Build() *BDD {
	d, _ := e.Merge()
	return d
}

// CacheSize reports what the engine retains and never forgets: the nodes
// it hash-consed, MergeParts's trials included, and the memoized pairs of
// its merge trees and part trials. The lossy computed table is bounded and
// not counted (for Compact decisions).
func (e *Engine) CacheSize() (nodes, memoEntries int) {
	return len(e.b.nodes), e.b.memo.len()
}

// CacheBytes reports the memory the engine retains across rebuilds,
// exactly: the capacities of the node store, of the builder's and the
// universe's tables, of the materialisation index and of the ID scratch
// lists (MergeParts's sizing included), times their element sizes, plus
// the computed table's slots and the nodes materialised so far.
// What the terminals' action sets and the contexts' constraints point to is
// not counted, nor are the per-rule chain list and drop counts, which grow
// with the live rules and not with the batches applied.
func (e *Engine) CacheBytes() int {
	b := e.b
	return cap(b.nodes)*int(unsafe.Sizeof(node{})) +
		cap(b.terms)*int(unsafe.Sizeof(term{})) +
		b.uniq.bytes() + b.termByH.bytes() + b.memo.bytes() + b.computed.bytes() + b.termMemo.bytes() +
		(cap(b.pending)+cap(e.merging)+cap(e.mark)+cap(e.stack))*4 +
		cap(e.mat)*int(unsafe.Sizeof((*Node)(nil))) +
		b.materialised*int(unsafe.Sizeof(Node{})) +
		e.u.cache.bytes()
}

package bdd

import (
	"slices"

	"camus/internal/subscription"
)

// Part is one diagram of a rule set: its root and, when MergeParts split
// the rule set, the IDs of the rules it holds, ascending.
type Part struct {
	Root  *Node
	Rules []int
}

// partFactor bounds a part merge: a group joins a part only when the
// merged diagram has at most partFactor times the reachable nodes of the
// two diagrams apart. It is a constant, not an option: every part costs
// every message one more walk of the stage tables (DESIGN §11).
const partFactor = 2

// fieldSet is a set of universe field indices: the bytes of a bitset, bit
// i%8 of byte i/8, without trailing zero bytes, so that equal sets are
// equal strings and a set is a map key. Field indices never change once
// given (Universe.Extend appends), so a set stays valid for the engine's
// life.
type fieldSet string

// fieldsOf is the set of fields nr's atoms test, validity bits aside.
func (e *Engine) fieldsOf(nr subscription.NormalizedRule) fieldSet {
	var bits []byte
	for _, a := range nr.Conj {
		if a.Ref.Kind == subscription.ValidityRef {
			continue
		}
		i := e.u.field(a.Ref).Index
		for len(bits) <= i/8 {
			bits = append(bits, 0)
		}
		bits[i/8] |= 1 << (i % 8)
	}
	return fieldSet(bits)
}

// union returns a ∪ b.
func (a fieldSet) union(b fieldSet) fieldSet {
	if len(a) < len(b) {
		a, b = b, a
	}
	if containsAll(a, b) {
		return a
	}
	bits := []byte(a)
	for i := 0; i < len(b); i++ {
		bits[i] |= b[i]
	}
	return fieldSet(bits)
}

// containsAll reports whether every bit of b is set in a, len(a) >= len(b).
func containsAll(a, b fieldSet) bool {
	for i := 0; i < len(b); i++ {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// group is the live disjuncts of the rules that test one field set: their
// indices into Engine.live, in rule-ID order.
type group []int

// groups partitions the live rules by the union of the field sets their
// disjuncts test, in order of each group's smallest rule ID. It returns
// nil when every rule tests the same fields, the common case, which then
// costs one pass and no allocation.
func (e *Engine) groups() []group {
	// ruleSets calls yield with each rule's field set and its live range.
	ruleSets := func(yield func(fs fieldSet, lo, hi int)) {
		for lo := 0; lo < len(e.live); {
			fs, hi := e.live[lo].fields, lo+1
			for ; hi < len(e.live) && e.live[hi].rule == e.live[lo].rule; hi++ {
				fs = fs.union(e.live[hi].fields)
			}
			yield(fs, lo, hi)
			lo = hi
		}
	}
	one, first := true, true
	var fs0 fieldSet
	ruleSets(func(fs fieldSet, _, _ int) {
		if first {
			fs0, first = fs, false
		} else if fs != fs0 {
			one = false
		}
	})
	if one {
		return nil
	}
	var out []group
	index := make(map[fieldSet]int)
	ruleSets(func(fs fieldSet, lo, hi int) {
		g, ok := index[fs]
		if !ok {
			g = len(out)
			index[fs] = g
			out = append(out, nil)
		}
		for i := lo; i < hi; i++ {
			out[g] = append(out[g], i)
		}
	})
	return out
}

// MergeParts merges the live chains into one diagram per part (DESIGN
// §11, "parts"). Rules are grouped by the fields their disjuncts test
// (validity bits aside), the groups taken in order of their smallest rule
// ID; a group joins the first part whose diagram, merged with the group's,
// has at most partFactor times the reachable nodes of the two apart, and
// otherwise starts a part. The decision is taken in the engine's trial
// builder, whose merges are a function of the rules they merge, so the
// parts are a function of the live rule set whatever the add/remove
// history. Each part is then one merge tree over its chains in rule-ID
// order in the main builder, as Merge builds the one diagram: a rule set
// that ends in one part gets Merge's diagram, node IDs included.
func (e *Engine) MergeParts() (d *BDD, err error) {
	defer recoverTooLarge(&err)
	var parts [][]int
	if groups := e.groups(); groups != nil {
		parts = e.decide(groups)
	}
	if len(parts) <= 1 {
		return e.Merge()
	}
	d = &BDD{Universe: e.u, DroppedRules: e.ndropped}
	part := make(map[int]int, len(e.live)) // rule ID → part
	for pi, rules := range parts {
		for _, id := range rules {
			part[id] = pi
		}
	}
	for pi, rules := range parts {
		root := e.mergeLive(func(rule int) bool { return part[rule] == pi })
		d.Parts = append(d.Parts, Part{Root: e.materialise(root), Rules: rules})
	}
	return d, nil
}

// decide returns the parts of groups as ascending rule-ID lists, in part
// order.
func (e *Engine) decide(groups []group) [][]int {
	if e.trial == nil {
		e.trial = newTrialBuilder(e.u, !e.opts.DisablePruning, e.opts.MaxNodes)
	}
	t := e.trial
	type part struct {
		root   int32
		groups []int
	}
	var parts []part
	for gi, g := range groups {
		root := t.mergeGroup(e.live, g)
		joined := false
		for pi := range parts {
			bound := partFactor * (t.size(parts[pi].root, -1) + t.size(root, -1))
			if r, ok := t.tryOr(parts[pi].root, root, bound); ok {
				parts[pi].root = r
				parts[pi].groups = append(parts[pi].groups, gi)
				joined = true
				break
			}
		}
		if !joined {
			parts = append(parts, part{root: root, groups: []int{gi}})
		}
	}
	out := make([][]int, len(parts))
	for pi, p := range parts {
		var rules []int
		for _, gi := range p.groups {
			for _, i := range groups[gi] {
				if id := e.live[i].rule; len(rules) == 0 || rules[len(rules)-1] != id {
					rules = append(rules, id)
				}
			}
		}
		slices.Sort(rules)
		out[pi] = slices.Compact(rules)
	}
	return out
}

// trialBuilder is where MergeParts tries merges: a builder of its own over
// the engine's universe, with what sizes its diagrams.
type trialBuilder struct {
	b *builder
	// maxNodes is the engine's node cap, which the group merges keep.
	maxNodes int
	// sizes caches reachable-node counts by root; mark and stamp are the
	// count's visited set, stack its work list.
	sizes map[int32]int
	mark  []uint32
	stamp uint32
	stack []int32
}

func newTrialBuilder(u *Universe, pruning bool, maxNodes int) *trialBuilder {
	b := newBuilder(u, pruning)
	b.maxNodes = maxNodes
	return &trialBuilder{b: b, maxNodes: maxNodes, sizes: make(map[int32]int)}
}

func (t *trialBuilder) bytes() int {
	if t == nil {
		return 0
	}
	return t.b.bytes() + 4*(cap(t.mark)+cap(t.stack))
}

// mergeGroup returns the trial diagram of the group g of live: its
// distinct chains, built here the first time, merged in rule-ID order.
func (t *trialBuilder) mergeGroup(live []ruleChain, g group) int32 {
	chains := make([]int32, 0, len(g))
	seen := make(map[int32]bool, len(g))
	for _, i := range g {
		c := &live[i]
		if c.trial < 0 {
			// The main builder chained the disjunct over the same universe
			// and pruning, so it is satisfiable here too.
			c.trial, _, _ = t.b.chain(c.nr)
		}
		if !seen[c.trial] {
			seen[c.trial] = true
			chains = append(chains, c.trial)
		}
	}
	return t.b.merge(chains)
}

// tryOr returns or(u, v) when its diagram has at most bound reachable
// nodes. The merge may create at most bound nodes: every node it creates
// is reachable from its result, so a merge that needs more fails the
// bound, and is abandoned there. Either outcome is a function of the two
// diagrams alone, and is memoized: a rejected pair under (u, v, 1).
func (t *trialBuilder) tryOr(u, v int32, bound int) (int32, bool) {
	if _, rejected := t.b.memo.get(u, v, 1); rejected {
		return 0, false
	}
	r, err := t.boundedOr(u, v, bound)
	if err == nil && t.size(r, bound) <= bound {
		return r, true
	}
	t.b.memo.put(u, v, 1, 0)
	return 0, false
}

// boundedOr is or(u, v) with at most bound nodes created, or ErrTooLarge.
func (t *trialBuilder) boundedOr(u, v int32, bound int) (r int32, err error) {
	t.b.maxNodes = len(t.b.nodes) + bound
	defer func() { t.b.maxNodes = t.maxNodes }()
	defer recoverTooLarge(&err)
	return t.b.or(u, v), nil
}

// size returns the number of nodes reachable from root, or some count
// above limit once it passes limit (limit < 0: no limit).
func (t *trialBuilder) size(root int32, limit int) int {
	if n, ok := t.sizes[root]; ok {
		return n
	}
	if len(t.mark) < len(t.b.nodes) {
		t.mark = slices.Grow(t.mark, len(t.b.nodes)-len(t.mark))[:len(t.b.nodes)]
	}
	t.stamp++
	if t.stamp == 0 {
		clear(t.mark)
		t.stamp = 1
	}
	n, stack := 0, append(t.stack[:0], root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.mark[id] == t.stamp {
			continue
		}
		t.mark[id] = t.stamp
		if n++; limit >= 0 && n > limit {
			t.stack = stack
			return n
		}
		if k := t.b.nodes[id]; k.pred != termPred {
			stack = append(stack, k.hi, k.lo)
		}
	}
	t.stack = stack
	t.sizes[root] = n
	return n
}

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

// groups labels each live disjunct with its group: rules are grouped by
// the union of the field sets their disjuncts test, and the groups are
// numbered in order of their smallest rule ID. It returns no labels and
// one group when every rule tests the same fields, the common case,
// which then costs one pass and no allocation.
func (e *Engine) groups() (label []int, n int) {
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
		return nil, 1
	}
	label = make([]int, len(e.live))
	index := make(map[fieldSet]int)
	ruleSets(func(fs fieldSet, lo, hi int) {
		g, ok := index[fs]
		if !ok {
			g = len(index)
			index[fs] = g
		}
		for i := lo; i < hi; i++ {
			label[i] = g
		}
	})
	return label, len(index)
}

// MergeParts merges the live chains into one diagram per part (DESIGN
// §11, "parts"). Rules are grouped by the fields their disjuncts test
// (validity bits aside), the groups taken in order of their smallest rule
// ID; a group joins the first part whose diagram, merged with the group's,
// has at most partFactor times the reachable nodes of the two apart, and
// otherwise starts a part. The decision is taken in the engine's one node
// store, and a trial's outcome is a function of the two diagrams it
// merges, so the parts are a function of the live rule set whatever the
// add/remove history. Each part is then one merge tree over its chains in
// rule-ID order, as Merge builds the one diagram: a rule set of one group
// gets Merge's diagram, node IDs included, and a part that is one group
// is the merge tree its trial already built, all memo hits. The trials'
// nodes count against Options.MaxNodes like any other.
func (e *Engine) MergeParts() (d *BDD, err error) {
	defer recoverTooLarge(&err)
	label, n := e.groups()
	if n <= 1 {
		return e.Merge()
	}
	partOf, nparts := e.decide(label, n)
	if nparts == 1 {
		return e.Merge()
	}
	d = &BDD{Universe: e.u, DroppedRules: e.ndropped}
	for pi := range nparts {
		in := func(i int) bool { return partOf[label[i]] == pi }
		var rules []int
		for i, c := range e.live {
			if in(i) && (len(rules) == 0 || rules[len(rules)-1] != c.rule) {
				rules = append(rules, c.rule)
			}
		}
		d.Parts = append(d.Parts, Part{Root: e.materialise(e.mergeLive(in)), Rules: rules})
	}
	return d, nil
}

// decide gives each of the n groups labelled by label a part, in group
// order, and returns each group's part and the number of parts.
func (e *Engine) decide(label []int, n int) (partOf []int, nparts int) {
	partOf = make([]int, n)
	var roots []int32 // each part's diagram so far
	for g := range n {
		root := e.mergeLive(func(i int) bool { return label[i] == g })
		partOf[g] = len(roots)
		for pi, pr := range roots {
			if r, ok := e.tryOr(pr, root, partFactor*(e.size(pr, -1)+e.size(root, -1))); ok {
				roots[pi], partOf[g] = r, pi
				break
			}
		}
		if partOf[g] == len(roots) {
			roots = append(roots, root)
		}
	}
	return partOf, len(roots)
}

// tryOr returns or(u, v) when its diagram has at most bound reachable
// nodes. The merge may create at most bound nodes: every node it creates
// is reachable from its result, so a merge that needs more fails the
// bound, and is abandoned there. Either outcome is a function of the two
// diagrams alone, and is memoized: a rejected pair under (u, v, 1).
func (e *Engine) tryOr(u, v int32, bound int) (int32, bool) {
	if _, rejected := e.b.memo.get(u, v, 1); rejected {
		return 0, false
	}
	r, err := e.boundedOr(u, v, bound)
	if err == nil && e.size(r, bound) <= bound {
		return r, true
	}
	e.b.memo.put(u, v, 1, 0)
	return 0, false
}

// boundedOr is or(u, v) with at most bound nodes created, or ErrTooLarge
// when the bound stops it. Where Options.MaxNodes comes first, the merge
// runs under MaxNodes alone, and reaching it panics out as any merge's
// does: the store never holds more than MaxNodes nodes.
func (e *Engine) boundedOr(u, v int32, bound int) (r int32, err error) {
	if limit := len(e.b.nodes) + bound; e.opts.MaxNodes <= 0 || limit < e.opts.MaxNodes {
		e.b.maxNodes = limit
		defer func() { e.b.maxNodes = e.opts.MaxNodes }()
		defer recoverTooLarge(&err)
	}
	return e.b.or(u, v), nil
}

// size returns the number of nodes reachable from root, or some count
// above limit once it passes limit (limit < 0: no limit).
func (e *Engine) size(root int32, limit int) int {
	if n, ok := e.sizes[root]; ok {
		return n
	}
	if len(e.mark) < len(e.b.nodes) {
		e.mark = slices.Grow(e.mark, len(e.b.nodes)-len(e.mark))[:len(e.b.nodes)]
	}
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
	n, stack := 0, append(e.stack[:0], root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.mark[id] == e.stamp {
			continue
		}
		e.mark[id] = e.stamp
		if n++; limit >= 0 && n > limit {
			e.stack = stack
			return n
		}
		if k := e.b.nodes[id]; k.pred != termPred {
			stack = append(stack, k.hi, k.lo)
		}
	}
	e.stack = stack
	if e.sizes == nil {
		e.sizes = make(map[int32]int)
	}
	e.sizes[root] = n
	return n
}

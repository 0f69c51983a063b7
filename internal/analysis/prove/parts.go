package prove

import (
	"fmt"
	"slices"

	"camus/internal/subscription"
)

// Part is one diagram of a program: its entry state and, when the program
// has several parts, the IDs of the rules it holds, ascending. The only
// part of a one-part program lists no rules: it holds every rule.
type Part struct {
	Init  int32
	Rules []int
}

// noState is an entry state no table holds: the walk from it passes every
// stage and reaches no leaf, so it drops every packet.
const noState int32 = -1

// from returns a view of p that walks from init alone: one part over the
// same stages and leaves, indexed once.
func (p *Program) from(init int32) *Program {
	v := *p
	v.Parts = []Part{{Init: init}}
	return &v
}

// parts splits the check into one checker per part of the program, each
// proving the part's walk against the part's own rules, plus one proving
// that the rules no part holds match no packet, from a state that drops
// everything. Together they prove the union. A rule in two parts, or a
// part rule the set lacks, is a partition finding. A one-part program is
// one checker over every rule.
func (c *checker) parts() []*checker {
	if len(c.p.Parts) == 1 {
		return []*checker{c}
	}
	byID := make(map[int]*provedRule, len(c.rules))
	for _, r := range c.rules {
		byID[r.id] = r
	}
	owner := make(map[int]int, len(c.rules))
	out := make([]*checker, 0, len(c.p.Parts)+1)
	for i, part := range c.p.Parts {
		pc := &checker{p: c.p.from(part.Init), opts: c.opts, res: c.res}
		for _, id := range part.Rules {
			r := byID[id]
			msg := ""
			if j, dup := owner[id]; dup {
				msg = fmt.Sprintf("rule %d is in parts %d and %d", id, j, i)
			} else if r == nil {
				msg = fmt.Sprintf("part %d holds rule %d, which the rule set lacks", i, id)
			}
			if msg != "" {
				c.res.Findings = append(c.res.Findings, Finding{Kind: KindPartition, RuleID: id, Message: msg})
				continue
			}
			owner[id] = i
			pc.rules = append(pc.rules, r)
		}
		out = append(out, pc)
	}
	rest := &checker{p: c.p.from(noState), opts: c.opts, res: c.res}
	for _, r := range c.rules {
		if _, ok := owner[r.id]; !ok {
			rest.rules = append(rest.rules, r)
		}
	}
	if len(rest.rules) > 0 {
		out = append(out, rest)
	}
	return out
}

// exploreAll is explore over the union of the parts: every path of the
// first part's walk continued through the next part's, each completed
// path carrying the union of the leaves its walks reached (nil when none
// reached one). The budget bounds the paths of each part's walk.
func (p *Program) exploreAll(c0 *pctx, budget int) ([]pathResult, bool) {
	paths, overflow := p.explore(c0, budget)
	for _, part := range p.Parts[1:] {
		view := p.from(part.Init)
		var next []pathResult
		for _, pr := range paths {
			sub, ov := view.explore(pr.c, budget)
			overflow = overflow || ov
			for _, s := range sub {
				next = append(next, pathResult{c: s.c, leaf: unionLeaf(pr.leaf, s.leaf)})
			}
			if len(next) > budget {
				return next, true
			}
		}
		paths = next
	}
	return paths, overflow
}

// unionLeaf is the leaf a packet reaching a and b gets: their actions and
// update keys united. Either may be nil.
func unionLeaf(a, b *Leaf) *Leaf {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	var acts subscription.ActionSet
	acts.Merge(a.Actions)
	acts.Merge(b.Actions)
	upd := append(slices.Clone(a.Updates), b.Updates...)
	slices.Sort(upd)
	return &Leaf{In: a.In, Actions: acts, Group: -1, Updates: slices.Compact(upd)}
}

package netcheck

import (
	"fmt"
	"slices"

	"camus/internal/analysis/prove"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/topology"
)

// CheckTree verifies the network invariants for a general-topology
// spanning-tree deployment (routing.ComputeTree over t): progs is the
// per-node symbolic IR (from programs compiled over
// Result.RulesForSwitch), port i of node v leads to
// t.TreeNeighbors(v)[i], and subs is the exact subscription set with
// Host = graph vertex.
//
// Tree nodes are their own access switches, so delivery means "a copy
// arrives at the subscriber node" and the ground truth is the
// stateless filter context (tree programs are compiled without
// last-hop semantics; the subscriber's final stateful evaluation is a
// per-switch property that prove already certifies). The spurious
// invariant takes its tree form: a copy that dies at a node — matching
// none of that node's subscriptions and forwarded nowhere — is
// mis-routed traffic, since α-approximation is deterministic and a
// transit node forwards everything its upstream approximation admits.
func CheckTree(t *topology.Tree, sp *spec.Spec, progs []*prove.Program, subs []Subscription, opts Options) (*Result, error) {
	n := t.Graph.N
	if len(progs) != n {
		return nil, fmt.Errorf("netcheck: %d programs for %d nodes", len(progs), n)
	}
	for _, s := range subs {
		if s.Host < 0 || s.Host >= n {
			return nil, fmt.Errorf("netcheck: filter %d: node %d out of range", s.ID, s.Host)
		}
	}
	ck, err := newChecker(sp, subs, opts, false, func(v int) string { return fmt.Sprintf("n%d", v) })
	if err != nil {
		return nil, err
	}
	// A loop-free tree walk visits at most every node once, so n+1 hops
	// is the exact sound bound — only an explicit smaller cap can
	// overflow here.
	if opts.MaxHops == 0 {
		ck.opts.MaxHops = n + 1
	}
	// Dead transit traffic inside a live filter's α-approximation is the
	// deterministic overshoot §IV-D buys; only classes outside every
	// approximation were mis-forwarded.
	for _, s := range subs {
		m, err := prove.NewMatcher(routing.Approximate(s.Expr, ck.opts.Alpha), false)
		if err != nil {
			return nil, fmt.Errorf("netcheck: filter %d approximation: %w", s.ID, err)
		}
		ck.tolerate = append(ck.tolerate, m)
	}
	noNS := func(int) string { return "" }

	publishers := ck.opts.Publishers
	if len(publishers) == 0 {
		publishers = make([]int, n)
		for i := range publishers {
			publishers[i] = i
		}
	}
	for _, pub := range publishers {
		if pub < 0 || pub >= n {
			return nil, fmt.Errorf("netcheck: publisher %d out of range", pub)
		}
		ck.cut = false
		arrivals, dead := ck.propagateTree(t, progs, pub)
		if !ck.cut {
			ck.checkBlackHoles(pub, arrivals, noNS)
		}
		ck.checkSpurious(pub, dead, noNS)
		ck.checkDuplicates(pub, arrivals, noNS)
	}
	return ck.res, nil
}

type treeInst struct {
	node int
	in   int // local port arrived on (-1 at the origin)
	cls  *prove.Class
	path []int
}

// propagateTree pushes the unconstrained class from the publishing
// node over the tree's links, returning per-node arrivals and the dead
// classes (arrived, matched no forwarding port).
func (ck *checker) propagateTree(t *topology.Tree, progs []*prove.Program, pub int) (arrivals, dead map[int][]delivery) {
	arrivals = make(map[int][]delivery)
	dead = make(map[int][]delivery)
	queue := []treeInst{{node: pub, in: -1, cls: prove.NewClass()}}
	budget := ck.opts.MaxClasses
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		ck.res.Classes++
		if budget--; budget < 0 {
			ck.overflow(fmt.Sprintf("class budget (%d) exhausted publishing from node %d", ck.opts.MaxClasses, pub))
			break
		}
		prog := progs[it.node]
		if prog == nil {
			if it.node != pub {
				dead[it.node] = append(dead[it.node], delivery{cls: it.cls, path: append(append([]int(nil), it.path...), it.node)})
			}
			continue
		}
		paths, over := prog.Explore(it.cls, ck.opts.MaxPaths)
		if over {
			ck.overflow(fmt.Sprintf("symbolic path budget (%d) exhausted on node %d", ck.opts.MaxPaths, it.node))
		}
		peers := t.TreeNeighbors(it.node)
		for _, sp := range paths {
			npath := append(append([]int(nil), it.path...), it.node)
			forwarded := false
			for _, q := range sp.Actions.Ports {
				if q == it.in || q < 0 || q >= len(peers) {
					continue // ingress-port drop / invalid port
				}
				forwarded = true
				next := peers[q]
				ncls := sp.Class.Freeze(ns(it.node))
				if ncls == nil {
					continue
				}
				arrivals[next] = append(arrivals[next], delivery{cls: ncls, path: npath})
				if slices.Contains(npath, next) {
					ck.loopFinding(pub, next, npath, ncls)
					continue
				}
				if len(npath) >= ck.opts.MaxHops {
					ck.overflow(fmt.Sprintf("hop budget (%d) exhausted from node %d without a revisit", ck.opts.MaxHops, pub))
					continue
				}
				in := slices.Index(t.TreeNeighbors(next), it.node)
				queue = append(queue, treeInst{node: next, in: in, cls: ncls, path: npath})
			}
			if !forwarded && it.node != pub {
				dead[it.node] = append(dead[it.node], delivery{cls: sp.Class, path: npath})
			}
		}
	}
	return arrivals, dead
}

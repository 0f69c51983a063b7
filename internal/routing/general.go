package routing

import (
	"fmt"
	"sort"

	"camus/internal/subscription"
	"camus/internal/topology"
)

// TreeFIB is the general-topology analogue of FIB (§IV-E): for a switch v
// on a spanning tree, each tree port carries the subscriptions of the
// nodes on the far side of that edge.
type TreeFIB struct {
	// Node is the graph vertex.
	Node int
	// PortPeer maps local port index → tree-neighbor vertex.
	PortPeer []int
	// Ports maps local port index → filter set.
	Ports map[int]FilterSet
}

// TreeResult is the computed policy for a general topology.
type TreeResult struct {
	Tree *topology.Tree
	// FIBs by vertex.
	FIBs []*TreeFIB
	// Filters is the global filter table.
	Filters []*Filter
}

// ComputeTree routes subscriptions over a spanning tree: for each tree
// edge (u,v), u's port toward v holds every subscription on v's side
// (the subtree of v when v is u's child; the rest of the network when v
// is u's parent). Every packet is then routed within the tree without
// loops (§IV-E).
func ComputeTree(t *topology.Tree, subs map[int][]subscription.Expr, alpha int64) (*TreeResult, error) {
	g := t.Graph
	res := &TreeResult{Tree: t, FIBs: make([]*TreeFIB, g.N)}

	// Global filter table; the subscriber's own node keeps the exact
	// filter (delivery point), remote copies use the approximation.
	// Filter IDs order every switch's rules and so its BDD merge, whose
	// result is order-sensitive: assign them by ascending node, not in
	// map order.
	nodes := make([]int, 0, len(subs))
	for node := range subs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	byNode := make(map[int]FilterSet, len(subs))
	for _, node := range nodes {
		if node < 0 || node >= g.N {
			return nil, fmt.Errorf("routing: subscriber node %d out of range", node)
		}
		exprs := subs[node]
		fs := make(FilterSet, len(exprs))
		for _, e := range exprs {
			f := &Filter{
				ID:     len(res.Filters),
				Host:   node,
				Expr:   e,
				Approx: Approximate(e, alpha),
			}
			res.Filters = append(res.Filters, f)
			fs[f.ID] = f
		}
		byNode[node] = fs
	}

	// Subtree filter sets via post-order accumulation.
	subtree := make([]FilterSet, g.N)
	for _, v := range t.PostOrder() {
		fs := make(FilterSet)
		if own, ok := byNode[v]; ok {
			fs.union(own)
		}
		for _, c := range t.Kids[v] {
			fs.union(subtree[c])
		}
		subtree[v] = fs
	}
	all := subtree[t.Root]

	for v := 0; v < g.N; v++ {
		fib := &TreeFIB{Node: v, Ports: make(map[int]FilterSet)}
		// Port numbering: children in order, then the parent link.
		for _, c := range t.Kids[v] {
			port := len(fib.PortPeer)
			fib.PortPeer = append(fib.PortPeer, c)
			fib.Ports[port] = subtree[c]
		}
		if p := t.Parent[v]; p >= 0 {
			port := len(fib.PortPeer)
			fib.PortPeer = append(fib.PortPeer, p)
			// Parent side = everything minus our own subtree.
			diff := make(FilterSet, len(all)-len(subtree[v]))
			for id, f := range all {
				if _, mine := subtree[v][id]; !mine {
					diff[id] = f
				}
			}
			fib.Ports[port] = diff
		}
		res.FIBs[v] = fib
	}
	return res, nil
}

// Effective is Filter.Effective on one of the vertex's tree ports: the
// edge to the subscriber's own node delivers.
func (fib *TreeFIB) Effective(port int, f *Filter) subscription.Expr {
	return f.Effective(f.Host == fib.PortPeer[port])
}

// RulesForNode converts a vertex's tree FIB into compiler rules: one rule
// per (port, unique effective filter), ports ascending.
func (r *TreeResult) RulesForNode(v int) []*subscription.Rule {
	fib := r.FIBs[v]
	var rules []*subscription.Rule
	for _, port := range sortedKeys(fib.Ports) {
		rules = appendPortRules(rules, port, fib.Ports[port], fib.Effective)
	}
	return rules
}

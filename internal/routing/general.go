package routing

import (
	"fmt"
	"sort"

	"camus/internal/subscription"
	"camus/internal/topology"
)

// ComputeTree routes subscriptions over a spanning tree: for each tree
// edge (u,v), u's port toward v holds every subscription on v's side
// (the subtree of v when v is u's child; the rest of the network when v
// is u's parent). Every packet is then routed within the tree without
// loops (§IV-E). A vertex's local ports are t.TreeNeighbors(v), and each
// delivers to the neighbour it leads to.
func ComputeTree(t *topology.Tree, subs map[int][]subscription.Expr, alpha int64) (*Result, error) {
	g := t.Graph
	res := &Result{FIBs: make([]*FIB, g.N)}

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
		fib := &FIB{Ports: make(map[int]FilterSet), Subscriber: make(map[int]int)}
		for port, peer := range t.TreeNeighbors(v) {
			fib.Subscriber[port] = peer
			if peer != t.Parent[v] {
				fib.Ports[port] = subtree[peer]
				continue
			}
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

package topology

import (
	"container/heap"
	"fmt"
)

// Graph is an undirected general topology (§IV-E): AS-level graphs in the
// paper's evaluation. Vertices are switches; edges are links.
type Graph struct {
	N   int
	Adj [][]int // adjacency lists, deduplicated, no self-loops
}

// NewGraph allocates an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{N: n, Adj: make([][]int, n)}
}

// AddEdge inserts an undirected edge (idempotent).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	for _, w := range g.Adj[u] {
		if w == v {
			return
		}
	}
	g.Adj[u] = append(g.Adj[u], v)
	g.Adj[v] = append(g.Adj[v], u)
}

// Edges counts undirected edges.
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n / 2
}

// Degree returns a vertex's degree.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.N
}

// Tree is a rooted spanning tree of a graph.
type Tree struct {
	Graph  *Graph
	Root   int
	Parent []int   // Parent[root] == -1
	Kids   [][]int // children lists
}

// WeightFunc assigns a weight to edge (u,v).
type WeightFunc func(u, v int) float64

// UnitWeight gives every edge weight 1 — the paper's baseline MST.
func UnitWeight(u, v int) float64 { return 1 }

// DegreeProductWeight is the MST++ heuristic: w(u,v) = deg(u)·deg(v),
// which steers Prim's algorithm toward low-degree spanning trees so each
// switch partitions its subscriptions into few port groups, letting the
// BDD compiler compress harder (§IV-E).
func DegreeProductWeight(g *Graph) WeightFunc {
	return func(u, v int) float64 {
		return float64(g.Degree(u)) * float64(g.Degree(v))
	}
}

// pqItem is a Prim frontier entry.
type pqItem struct {
	v    int
	from int
	w    float64
}

type prio []pqItem

func (p prio) Len() int            { return len(p) }
func (p prio) Less(i, j int) bool  { return p[i].w < p[j].w }
func (p prio) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *prio) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *prio) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// PrimMST computes a minimum spanning tree from root with the given edge
// weights (§IV-E: both MST and MST++ use Prim's algorithm).
func PrimMST(g *Graph, root int, w WeightFunc) (*Tree, error) {
	if root < 0 || root >= g.N {
		return nil, fmt.Errorf("topology: root %d out of range", root)
	}
	t := &Tree{Graph: g, Root: root, Parent: make([]int, g.N), Kids: make([][]int, g.N)}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	inTree := make([]bool, g.N)
	pq := &prio{}
	inTree[root] = true
	for _, v := range g.Adj[root] {
		heap.Push(pq, pqItem{v: v, from: root, w: w(root, v)})
	}
	added := 1
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if inTree[it.v] {
			continue
		}
		inTree[it.v] = true
		t.Parent[it.v] = it.from
		t.Kids[it.from] = append(t.Kids[it.from], it.v)
		added++
		for _, nb := range g.Adj[it.v] {
			if !inTree[nb] {
				heap.Push(pq, pqItem{v: nb, from: it.v, w: w(it.v, nb)})
			}
		}
	}
	if added != g.N {
		return nil, fmt.Errorf("topology: graph is disconnected (%d of %d reached)", added, g.N)
	}
	return t, nil
}

// MaxDegree returns the maximum number of tree neighbors (parent +
// children) over all vertices — MST++ minimizes this heuristically.
func (t *Tree) MaxDegree() int {
	max := 0
	for v := 0; v < t.Graph.N; v++ {
		d := len(t.Kids[v])
		if t.Parent[v] >= 0 {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

// PostOrder returns the vertices in post-order (children before parents),
// the traversal the subscription-partition computation uses.
func (t *Tree) PostOrder() []int {
	out := make([]int, 0, t.Graph.N)
	type frame struct {
		v    int
		next int
	}
	stack := []frame{{v: t.Root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(t.Kids[f.v]) {
			child := t.Kids[f.v][f.next]
			f.next++
			stack = append(stack, frame{v: child})
			continue
		}
		out = append(out, f.v)
		stack = stack[:len(stack)-1]
	}
	return out
}

// TreeNeighbors lists a vertex's tree-adjacent vertices, children in
// order and then the parent: index i is the vertex's local port i
// (routing.ComputeTree, netcheck.CheckTree).
func (t *Tree) TreeNeighbors(v int) []int {
	out := append([]int(nil), t.Kids[v]...)
	if t.Parent[v] >= 0 {
		out = append(out, t.Parent[v])
	}
	return out
}

package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

// carrierPorts returns the ports of fib whose filter set contains id.
func carrierPorts(fib *FIB, id int) []int {
	var ports []int
	for p, fs := range fib.Ports {
		if _, ok := fs[id]; ok {
			ports = append(ports, p)
		}
	}
	return ports
}

// TestTreeRoutingProperties is the direct (non-symbolic) ground truth
// the netcheck corpus is cross-checked against: over ~50 random MST++
// topologies, every §IV-E routing table satisfies, per filter,
//
//  1. exactly one carrying port on every non-subscriber node and none
//     on the subscriber (the tree partition is exhaustive + disjoint),
//  2. following the carrying port from any node walks to the
//     subscriber without revisiting a node (loop-freedom), and
//  3. every subscriber is reached from every possible publisher
//     (host coverage).
func TestTreeRoutingProperties(t *testing.T) {
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB", "S001"}
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			n := 12 + r.Intn(60)
			g := workload.ASGraph(workload.ASGraphConfig{
				Nodes: n,
				Edges: n + r.Intn(2*n),
				Seed:  seed,
			})
			mst, err := topology.PrimMST(g, r.Intn(g.N), topology.DegreeProductWeight(g))
			if err != nil {
				t.Fatalf("PrimMST: %v", err)
			}
			subs := make(map[int][]subscription.Expr)
			for i := 0; i < 3+r.Intn(5); i++ {
				node := r.Intn(g.N)
				subs[node] = append(subs[node], filter(t, fmt.Sprintf(
					"stock == %s and price > %d", stocks[r.Intn(len(stocks))], r.Intn(900))))
			}
			tr, err := ComputeTree(mst, subs, int64(r.Intn(2))*100)
			if err != nil {
				t.Fatalf("ComputeTree: %v", err)
			}

			for _, f := range tr.Filters {
				// (1) partition: one carrier everywhere but home.
				for v := 0; v < g.N; v++ {
					ports := carrierPorts(tr.FIBs[v], f.ID)
					switch {
					case v == f.Host && len(ports) != 0:
						t.Fatalf("filter %d: subscriber node %d forwards its own filter via ports %v", f.ID, v, ports)
					case v != f.Host && len(ports) != 1:
						t.Fatalf("filter %d: node %d carries filter on %d ports, want 1", f.ID, v, len(ports))
					}
				}
				// (2)+(3) walk from every publisher to the subscriber.
				for start := 0; start < g.N; start++ {
					visited := make(map[int]bool)
					v := start
					for v != f.Host {
						if visited[v] {
							t.Fatalf("filter %d: routing loop revisits node %d on walk from %d", f.ID, v, start)
						}
						visited[v] = true
						v = mst.TreeNeighbors(v)[carrierPorts(tr.FIBs[v], f.ID)[0]]
					}
				}
			}
		})
	}
}

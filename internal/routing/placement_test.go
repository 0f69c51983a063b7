package routing

import (
	"fmt"
	"sort"
	"testing"

	"camus/internal/subscription"
	"camus/internal/topology"
)

// TestPlacesMatchDefinition checks Places against §IV-C's definition by
// brute force and from the other end — Places climbs from the host, the
// definition descends from each port: the filters on a host or down port
// are those of the hosts a DFS over PeerHost/PeerDown links reaches
// through it; under TR the logical up port of a switch holds the filters
// of every host not below the switch, under MR the constant-true filter
// and nothing else. ComputeFatTree, one filter per host, must populate
// exactly the same sets.
func TestPlacesMatchDefinition(t *testing.T) {
	for _, k := range []int{2, 4} {
		net := topology.MustFatTree(k)
		subs := make([][]subscription.Expr, len(net.Hosts))
		for h := range subs {
			subs[h] = []subscription.Expr{filter(t, fmt.Sprintf("price > %d", h))}
		}
		for _, policy := range []Policy{MemoryReduction, TrafficReduction} {
			name := fmt.Sprintf("k=%d/%v", k, policy)
			// want[place] is the sorted host list the definition puts there.
			want := make(map[Place][]int)
			var wantMatchAll []Place
			for _, s := range net.Switches {
				below := make(map[int]bool)
				for _, p := range s.Ports {
					if p.Kind == topology.PeerUp {
						continue
					}
					hosts := hostsReachableDown(net, s.ID, p.Index)
					sort.Ints(hosts)
					want[Place{s.ID, p.Index}] = hosts
					for _, h := range hosts {
						below[h] = true
					}
				}
				if len(s.UpPorts()) == 0 {
					continue
				}
				if policy == MemoryReduction {
					wantMatchAll = append(wantMatchAll, Place{s.ID, UpPort})
					continue
				}
				for h := range net.Hosts {
					if !below[h] {
						want[Place{s.ID, UpPort}] = append(want[Place{s.ID, UpPort}], h)
					}
				}
			}

			got := make(map[Place][]int)
			for h := range net.Hosts {
				places := Places(net, policy, h)
				if sw, port := net.Access(h); places[0] != (Place{sw, port}) {
					t.Errorf("%s host %d: first place %v is not the access port", name, h, places[0])
				}
				for _, p := range places {
					got[p] = append(got[p], h) // hosts ascend, so lists come out sorted
				}
			}
			for p, hosts := range want {
				if len(hosts) == 0 {
					delete(want, p)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: Places\n got %v\nwant %v", name, got, want)
			}
			if got := MatchAll(net, policy); fmt.Sprint(got) != fmt.Sprint(wantMatchAll) {
				t.Errorf("%s: MatchAll = %v, want %v", name, got, wantMatchAll)
			}

			res, err := ComputeFatTree(net, subs, Options{Policy: policy})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fibs := make(map[Place][]int)
			var matchAll []Place
			for sw, fib := range res.FIBs {
				for port, fs := range fib.Ports {
					if port == UpPort && fib.MatchAllUp {
						matchAll = append(matchAll, Place{sw, port})
					}
					for id := range fs {
						fibs[Place{sw, port}] = append(fibs[Place{sw, port}], res.Filters[id].Host)
					}
				}
			}
			for _, hosts := range fibs {
				sort.Ints(hosts)
			}
			if fmt.Sprint(fibs) != fmt.Sprint(want) {
				t.Errorf("%s: ComputeFatTree\n got %v\nwant %v", name, fibs, want)
			}
			if fmt.Sprint(matchAll) != fmt.Sprint(wantMatchAll) {
				t.Errorf("%s: MatchAllUp on %v, want %v", name, matchAll, wantMatchAll)
			}
		}
	}
	net := topology.MustFatTree(2)
	if _, err := ComputeFatTree(net, make([][]subscription.Expr, len(net.Hosts)), Options{Policy: 7}); err == nil {
		t.Error("unknown policy accepted")
	}
}

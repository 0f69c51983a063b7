package netcheck

import (
	"fmt"

	"camus/internal/analysis/prove"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/topology"
)

// CheckFatTree verifies the three network invariants for a fat-tree
// deployment: progs is the per-switch symbolic IR (by switch ID, from
// compiler.Program.ProveIR; nil entries drop everything) and subs the
// exact subscription set, host-indexed. Matching the dataplane, the
// delivery ground truth uses §II last-hop semantics: the obligation for
// a stateful filter covers exactly the packets whose aggregate
// predicate holds on the subscriber's access switch.
func CheckFatTree(net *topology.Network, sp *spec.Spec, progs []*prove.Program, subs []Subscription, opts Options) (*Result, error) {
	if len(progs) != len(net.Switches) {
		return nil, fmt.Errorf("netcheck: %d programs for %d switches", len(progs), len(net.Switches))
	}
	for _, s := range subs {
		if s.Host < 0 || s.Host >= len(net.Hosts) {
			return nil, fmt.Errorf("netcheck: filter %d: host %d out of range", s.ID, s.Host)
		}
	}
	ck, err := newChecker(sp, subs, opts, true, func(sw int) string { return net.Switches[sw].Name })
	if err != nil {
		return nil, err
	}
	deliverNS := func(host int) string {
		sw, _ := net.Access(host)
		return ns(sw)
	}

	publishers := ck.opts.Publishers
	if len(publishers) == 0 {
		publishers = make([]int, len(net.Hosts))
		for i := range publishers {
			publishers[i] = i
		}
	}
	for _, pub := range publishers {
		if pub < 0 || pub >= len(net.Hosts) {
			return nil, fmt.Errorf("netcheck: publisher %d out of range", pub)
		}
		tor, _ := net.Access(pub)
		// The invariants must hold under every up-path resolution: the
		// single climbing copy picks one uplink at its ToR and one at
		// the chosen agg (RR/ECMP); copies arriving from above never
		// climb again, so these are the only nondeterministic choices.
		for _, resolution := range upResolutions(net, tor) {
			ck.cut = false
			deliveries := ck.propagateFat(net, progs, pub, resolution)
			if !ck.cut {
				ck.checkBlackHoles(pub, deliveries, deliverNS)
			}
			ck.checkSpurious(pub, deliveries, deliverNS)
			ck.checkDuplicates(pub, deliveries, deliverNS)
		}
	}
	return ck.res, nil
}

// upResolutions enumerates the up-path choices reachable from one
// ingress ToR: (uplink at the ToR) × (uplink at that agg). A topology
// with no uplinks has the single empty resolution.
func upResolutions(net *topology.Network, tor int) []map[int]int {
	ups := net.Switches[tor].UpPorts()
	if len(ups) == 0 {
		return []map[int]int{{}}
	}
	var out []map[int]int
	for _, up := range ups {
		agg := up.PeerSwitch
		aggUps := net.Switches[agg].UpPorts()
		if len(aggUps) == 0 {
			out = append(out, map[int]int{tor: up.Index})
			continue
		}
		for _, aup := range aggUps {
			out = append(out, map[int]int{tor: up.Index, agg: aup.Index})
		}
	}
	return out
}

// fatInst is one symbolic copy in flight.
type fatInst struct {
	sw     int
	in     int // arrival port (the publisher's access port at the ingress ToR)
	fromUp bool
	cls    *prove.Class
	path   []int // switches already visited (not including sw)
}

// propagateFat pushes the unconstrained ingress class from pub's
// access port through the network under one up-path resolution,
// returning the symbolic deliveries per host.
func (ck *checker) propagateFat(net *topology.Network, progs []*prove.Program, pub int, resolution map[int]int) map[int][]delivery {
	deliveries := make(map[int][]delivery)
	tor, accessPort := net.Access(pub)
	queue := []fatInst{{sw: tor, in: accessPort, cls: prove.NewClass()}}
	budget := ck.opts.MaxClasses
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		ck.res.Classes++
		if budget--; budget < 0 {
			ck.overflow(fmt.Sprintf("class budget (%d) exhausted publishing from host %d", ck.opts.MaxClasses, pub))
			break
		}
		prog := progs[it.sw]
		if prog == nil {
			continue
		}
		paths, over := prog.Explore(it.cls, ck.opts.MaxPaths)
		if over {
			ck.overflow(fmt.Sprintf("symbolic path budget (%d) exhausted on %s", ck.opts.MaxPaths, ck.swName(it.sw)))
		}
		sw := net.Switches[it.sw]
		for _, sp := range paths {
			for _, q := range sp.Actions.Ports {
				phys := q
				if q == routing.UpPort {
					// A copy that arrived from above never climbs again
					// (netsim resolvePort); otherwise the resolution
					// pins the single physical uplink.
					if it.fromUp {
						continue
					}
					var ok bool
					if phys, ok = resolution[it.sw]; !ok {
						if ups := sw.UpPorts(); len(ups) > 0 {
							phys = ups[0].Index
						} else {
							continue
						}
					}
				} else if q == it.in {
					continue // pipeline's ingress-port drop
				}
				if phys < 0 || phys >= len(sw.Ports) {
					continue
				}
				port := sw.Ports[phys]
				switch port.Kind {
				case topology.PeerHost:
					deliveries[port.PeerHostID] = append(deliveries[port.PeerHostID], delivery{
						cls:  sp.Class,
						path: append(append([]int(nil), it.path...), it.sw),
					})
				default:
					next := port.PeerSwitch
					ncls := sp.Class.Freeze(ns(it.sw))
					if ncls == nil {
						continue
					}
					npath := append(append([]int(nil), it.path...), it.sw)
					if containsInt(npath, next) {
						ck.loopFinding(pub, next, npath, ncls)
						continue
					}
					if len(npath) >= ck.opts.MaxHops {
						ck.overflow(fmt.Sprintf("hop budget (%d) exhausted from host %d without a revisit", ck.opts.MaxHops, pub))
						continue
					}
					inKind := net.Switches[next].Ports[port.PeerPort].Kind
					queue = append(queue, fatInst{
						sw: next, in: port.PeerPort, fromUp: inKind == topology.PeerUp,
						cls: ncls, path: npath,
					})
				}
			}
		}
	}
	return deliveries
}

package routing

import "camus/internal/topology"

// Place is one (switch, port) a filter occupies; Port is a local port
// index or UpPort.
type Place struct {
	Switch, Port int
}

// Places is Algorithm 1 (§IV-C) in closed form. The filter sets F_p^s the
// algorithm accumulates are unions over hosts, so where a filter lands
// depends only on its host: ComputeFatTree is the union of Places over
// every filter, and the live control plane (ctlplane.Reconciler) calls it
// per subscribe event.
//
// A filter of host occupies the access port (lines 3–5; first in the
// result, and the one host-facing place, where the filter stays exact);
// the far end of every up link on the way from the access switch to the
// cores, those being the down ports whose subtree contains the host
// (lines 6–12); and — under TR — the logical up port of every other
// switch that has one (lines 16–22 for multi-level trees: what is
// reachable through a switch's up port is exactly what is not below it).
func Places(net *topology.Network, policy Policy, host int) []Place {
	sw, port := net.Access(host)
	out := []Place{{sw, port}}
	above := map[int]bool{sw: true} // the switches the host is below
	for climb := []int{sw}; len(climb) > 0; climb = climb[1:] {
		for _, up := range net.Switches[climb[0]].UpPorts() {
			out = append(out, Place{up.PeerSwitch, up.PeerPort})
			if !above[up.PeerSwitch] {
				above[up.PeerSwitch] = true
				climb = append(climb, up.PeerSwitch)
			}
		}
	}
	if policy == TrafficReduction {
		for _, s := range net.Switches {
			if !above[s.ID] && len(s.UpPorts()) > 0 {
				out = append(out, Place{s.ID, UpPort})
			}
		}
	}
	return out
}

// MatchAll returns the places that hold the constant-true filter whatever
// the subscriptions are: under MR the logical up port of every switch
// that has one (lines 13–15), under TR none.
func MatchAll(net *topology.Network, policy Policy) []Place {
	var out []Place
	if policy == MemoryReduction {
		for _, s := range net.Switches {
			if len(s.UpPorts()) > 0 {
				out = append(out, Place{s.ID, UpPort})
			}
		}
	}
	return out
}

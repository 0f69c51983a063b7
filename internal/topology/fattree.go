// Package topology models the networks Camus routes over: hierarchical
// fat trees (the expected datacenter deployment, §IV-A) and general
// graphs routed via spanning trees (§IV-E).
package topology

import "fmt"

// Layer is a switch's level in a hierarchical topology.
type Layer int

const (
	// ToR is the top-of-rack (host-facing, last-hop) layer.
	ToR Layer = iota
	// Agg is the aggregation layer.
	Agg
	// Core is the core layer (no up ports).
	Core
	// General marks switches of non-hierarchical topologies.
	General
)

func (l Layer) String() string {
	switch l {
	case ToR:
		return "tor"
	case Agg:
		return "agg"
	case Core:
		return "core"
	default:
		return "general"
	}
}

// PeerKind distinguishes what a port connects to.
type PeerKind int

const (
	// PeerHost is a host-facing (access) port.
	PeerHost PeerKind = iota
	// PeerDown links to a lower-layer switch.
	PeerDown
	// PeerUp links to a higher-layer switch. Camus treats all up ports
	// as one logical up port (§IV-C).
	PeerUp
)

// Port is one switch port and its link.
type Port struct {
	// Index is the local port number.
	Index int
	// Kind classifies the link direction.
	Kind PeerKind
	// PeerSwitch / PeerHost identify the neighbor (one is -1).
	PeerSwitch int
	PeerHostID int
	// PeerPort is the neighbor's local port number (switch peers).
	PeerPort int
}

// Switch is one switch in the network.
type Switch struct {
	// ID is the switch index in Network.Switches.
	ID int
	// Name is the human-readable identifier (e.g. "tor-0-1").
	Name string
	// Layer is the hierarchy level.
	Layer Layer
	// Ports in index order.
	Ports []Port
}

// UpPorts returns the up-facing ports.
func (s *Switch) UpPorts() []Port { return s.portsOf(PeerUp) }

// DownPorts returns the down-facing switch ports.
func (s *Switch) DownPorts() []Port { return s.portsOf(PeerDown) }

// HostPorts returns the host-facing ports.
func (s *Switch) HostPorts() []Port { return s.portsOf(PeerHost) }

// HostFacing reports whether port is one of s's host-facing (access)
// ports — the hop before a subscriber, where filters are installed exact
// and stateful predicates run (§II, §IV-D). The logical up port and
// indices outside the switch are not.
func (s *Switch) HostFacing(port int) bool {
	return port >= 0 && port < len(s.Ports) && s.Ports[port].Kind == PeerHost
}

func (s *Switch) portsOf(k PeerKind) []Port {
	var out []Port
	for _, p := range s.Ports {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

// Host is an end point (publisher and/or subscriber).
type Host struct {
	// ID is the host index in Network.Hosts.
	ID int
	// Name is the human-readable identifier (e.g. "h3").
	Name string
	// Switch and Port are the access attachment (Algorithm 1's access()).
	Switch int
	Port   int
}

// Network is a topology instance.
type Network struct {
	Switches []*Switch
	Hosts    []*Host
	// K is the fat-tree arity (0 for non-fat-tree networks).
	K int
}

// Access returns the access switch and port of a host (Algorithm 1).
func (n *Network) Access(hostID int) (sw, port int) {
	h := n.Hosts[hostID]
	return h.Switch, h.Port
}

// LayerSwitches returns the switches of one layer.
func (n *Network) LayerSwitches(l Layer) []*Switch {
	var out []*Switch
	for _, s := range n.Switches {
		if s.Layer == l {
			out = append(out, s)
		}
	}
	return out
}

// addLink wires switch a port ap to switch b port bp with kinds ka / kb.
func (n *Network) addLink(a, ap, b, bp int, ka, kb PeerKind) {
	n.Switches[a].Ports[ap] = Port{Index: ap, Kind: ka, PeerSwitch: b, PeerHostID: -1, PeerPort: bp}
	n.Switches[b].Ports[bp] = Port{Index: bp, Kind: kb, PeerSwitch: a, PeerHostID: -1, PeerPort: ap}
}

// FatTree builds a k-ary fat tree (§IV-B, Fig. 3): k pods of k/2 ToR and
// k/2 Agg switches, (k/2)² core switches, and k/2 hosts per ToR. k=4
// yields the paper's Mininet instance: 20 switches, 16 hosts.
func FatTree(k int) (*Network, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity must be even and ≥2, got %d", k)
	}
	half := k / 2
	n := &Network{K: k}

	// Allocate switches: per pod k/2 ToR then k/2 Agg; then cores.
	torID := func(pod, i int) int { return pod*k + i }
	aggID := func(pod, i int) int { return pod*k + half + i }
	coreID := func(i, j int) int { return k*k + i*half + j }
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			n.Switches = append(n.Switches, &Switch{
				Name: fmt.Sprintf("tor-%d-%d", pod, i), Layer: ToR,
				Ports: make([]Port, k),
			})
		}
		for i := 0; i < half; i++ {
			n.Switches = append(n.Switches, &Switch{
				Name: fmt.Sprintf("agg-%d-%d", pod, i), Layer: Agg,
				Ports: make([]Port, k),
			})
		}
	}
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			n.Switches = append(n.Switches, &Switch{
				Name: fmt.Sprintf("core-%d-%d", i, j), Layer: Core,
				Ports: make([]Port, k),
			})
		}
	}
	for id, s := range n.Switches {
		s.ID = id
		for p := range s.Ports {
			s.Ports[p] = Port{Index: p, PeerSwitch: -1, PeerHostID: -1}
		}
	}

	// Hosts: ports 0..half-1 of each ToR.
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			tor := torID(pod, i)
			for hp := 0; hp < half; hp++ {
				hid := len(n.Hosts)
				n.Hosts = append(n.Hosts, &Host{
					ID: hid, Name: fmt.Sprintf("h%d", hid), Switch: tor, Port: hp,
				})
				n.Switches[tor].Ports[hp] = Port{Index: hp, Kind: PeerHost, PeerSwitch: -1, PeerHostID: hid}
			}
		}
	}

	// ToR ↔ Agg within each pod (ToR up ports half..k-1; Agg down ports
	// 0..half-1).
	for pod := 0; pod < k; pod++ {
		for t := 0; t < half; t++ {
			for a := 0; a < half; a++ {
				n.addLink(torID(pod, t), half+a, aggID(pod, a), t, PeerUp, PeerDown)
			}
		}
	}
	// Agg ↔ Core: agg i of each pod connects to cores i*half..i*half+half-1
	// on its up ports half..k-1; core (i,j) port `pod` links pod's agg i.
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				n.addLink(aggID(pod, a), half+j, coreID(a, j), pod, PeerUp, PeerDown)
			}
		}
	}
	return n, nil
}

// MustFatTree is FatTree, panicking on error.
func MustFatTree(k int) *Network {
	n, err := FatTree(k)
	if err != nil {
		panic(err)
	}
	return n
}

// Validate checks structural invariants: symmetric links, all ports
// wired, hosts attached to ToR switches.
func (n *Network) Validate() error {
	for _, s := range n.Switches {
		for _, p := range s.Ports {
			switch p.Kind {
			case PeerHost:
				if p.PeerHostID < 0 || p.PeerHostID >= len(n.Hosts) {
					return fmt.Errorf("%s port %d: bad host %d", s.Name, p.Index, p.PeerHostID)
				}
				h := n.Hosts[p.PeerHostID]
				if h.Switch != s.ID || h.Port != p.Index {
					return fmt.Errorf("%s port %d: host %s access mismatch", s.Name, p.Index, h.Name)
				}
			default:
				if p.PeerSwitch < 0 {
					return fmt.Errorf("%s port %d: unwired", s.Name, p.Index)
				}
				peer := n.Switches[p.PeerSwitch]
				back := peer.Ports[p.PeerPort]
				if back.PeerSwitch != s.ID || back.PeerPort != p.Index {
					return fmt.Errorf("%s port %d: asymmetric link to %s", s.Name, p.Index, peer.Name)
				}
			}
		}
	}
	return nil
}

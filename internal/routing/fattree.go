package routing

import (
	"fmt"
	"sort"

	"camus/internal/subscription"
	"camus/internal/topology"
)

// UpPort is the logical up port (§IV-C: Camus treats the upward ports of
// a switch as a single logical port; the dataplane picks a physical up
// link per packet). It appears as a fwd() port in generated rules; the
// network simulator resolves it to a physical link.
const UpPort = -1

// Policy selects between the two routing policies of §IV-C.
type Policy int

const (
	// MemoryReduction (MR) installs the constant-true filter on up
	// ports: minimal switch memory, all unmatched traffic climbs to the
	// core.
	MemoryReduction Policy = iota
	// TrafficReduction (TR) installs the exact set of filters reachable
	// through the up port: more memory, no unnecessary upward traffic.
	TrafficReduction
)

func (p Policy) String() string {
	if p == MemoryReduction {
		return "MR"
	}
	return "TR"
}

// Filter is one host subscription participating in routing.
type Filter struct {
	// ID is the global filter index.
	ID int
	// Host is the subscribing host (fat tree) or vertex (tree).
	Host int
	// Expr is the original filter.
	Expr subscription.Expr
	// Approx is the α-discretized form installed above the access switch
	// (== Expr when α ≤ 1).
	Approx subscription.Expr
}

// FilterSet is a set of filters by ID.
type FilterSet map[int]*Filter

func (fs FilterSet) union(o FilterSet) {
	for id, f := range o {
		fs[id] = f
	}
}

// FIB is the routing policy's output for one switch: the filter sets
// F_p^s per port, whichever topology computed them — Algorithm 1 on a fat
// tree (§IV-C) or the spanning tree of a general graph (§IV-E). Port
// UpPort holds the logical up set of a fat-tree switch.
type FIB struct {
	Ports map[int]FilterSet
	// Subscriber maps each port that hands packets straight to a
	// subscriber to that subscriber's ID: a fat-tree switch's
	// host-facing ports to their hosts, every port of a tree vertex to
	// its neighbour vertex.
	Subscriber map[int]int
	// MatchAllUp is set under MR: the up port forwards everything.
	MatchAllUp bool
}

// Result is the computed global routing policy.
type Result struct {
	// FIBs by switch ID (fat tree) or vertex (tree).
	FIBs []*FIB
	// Filters is the global filter table.
	Filters []*Filter
}

// Options configure policy computation.
type Options struct {
	Policy Policy
	// Alpha is the discretization unit α (§IV-D); 0 or 1 disables
	// approximation.
	Alpha int64
}

// Effective returns the expression f is installed with on a port: the
// exact filter on the port that delivers to its subscriber, the
// α-approximation in transit (§IV-D; the ToR layer "stores all the
// original subscriptions" only for its own hosts).
func (f *Filter) Effective(delivering bool) subscription.Expr {
	if delivering {
		return f.Expr
	}
	return f.Approx
}

// Effective is Filter.Effective on one of the switch's ports: the port
// that hands packets to f's subscriber delivers.
func (fib *FIB) Effective(port int, f *Filter) subscription.Expr {
	sub, ok := fib.Subscriber[port]
	return f.Effective(ok && sub == f.Host)
}

// ComputeFatTree runs Algorithm 1: convert per-host subscriptions into
// per-switch, per-port filter sets over a hierarchical topology — the
// union of Places over every filter. Filter IDs follow host order; they
// number every switch's rules (RulesForSwitch).
func ComputeFatTree(net *topology.Network, subs [][]subscription.Expr, opts Options) (*Result, error) {
	if len(subs) != len(net.Hosts) {
		return nil, fmt.Errorf("routing: %d subscription lists for %d hosts", len(subs), len(net.Hosts))
	}
	if opts.Policy != MemoryReduction && opts.Policy != TrafficReduction {
		return nil, fmt.Errorf("routing: unknown policy %d", opts.Policy)
	}
	res := &Result{FIBs: make([]*FIB, len(net.Switches))}
	for i, s := range net.Switches {
		fib := &FIB{Ports: make(map[int]FilterSet), Subscriber: make(map[int]int)}
		for _, p := range s.HostPorts() {
			fib.Subscriber[p.Index] = p.PeerHostID
		}
		res.FIBs[i] = fib
	}
	for h, exprs := range subs {
		places := Places(net, opts.Policy, h)
		for _, e := range exprs {
			f := &Filter{ID: len(res.Filters), Host: h, Expr: e, Approx: Approximate(e, opts.Alpha)}
			res.Filters = append(res.Filters, f)
			for _, p := range places {
				res.FIBs[p.Switch].ensure(p.Port)[f.ID] = f
			}
		}
	}
	for _, p := range MatchAll(net, opts.Policy) {
		res.FIBs[p.Switch].MatchAllUp = true
		res.FIBs[p.Switch].ensure(p.Port)
	}
	return res, nil
}

func (f *FIB) ensure(port int) FilterSet {
	fs, ok := f.Ports[port]
	if !ok {
		fs = make(FilterSet)
		f.Ports[port] = fs
	}
	return fs
}

// RulesForSwitch converts a switch's FIB into the compiler's intermediate
// representation: one fwd(port) rule per (port, distinct effective
// filter), ports ascending and filters in ID order. Duplicates collapsing
// is where the approximation's aggregation benefit appears.
func (r *Result) RulesForSwitch(swID int) []*subscription.Rule {
	fib := r.FIBs[swID]
	var rules []*subscription.Rule
	for _, port := range sortedKeys(fib.Ports) {
		if port == UpPort && fib.MatchAllUp {
			rules = append(rules, &subscription.Rule{
				ID:     len(rules),
				Filter: subscription.True,
				Action: subscription.FwdAction(UpPort),
			})
			continue
		}
		fs := fib.Ports[port]
		seen := make(map[string]bool, len(fs))
		for _, id := range sortedKeys(fs) {
			e := fib.Effective(port, fs[id])
			if key := e.String(); !seen[key] {
				seen[key] = true
				rules = append(rules, &subscription.Rule{
					ID:     len(rules),
					Filter: e,
					Action: subscription.FwdAction(port),
				})
			}
		}
	}
	return rules
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

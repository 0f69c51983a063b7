package corrupt

import (
	"fmt"

	"camus/internal/routing"
	"camus/internal/subscription"
)

// NetMutation is one named placement/routing corruption — the
// network-level analogue of Mutation. It mutates a computed routing
// policy (fat tree or spanning tree) before compilation, simulating
// controller defects: a port entry the reconciler dropped or misplaced,
// a wrong α-approximation cut, a covering pass that lost or kept the
// wrong entry. The netcheck verifier must report every one with a
// replayable counterexample.
type NetMutation struct {
	// Op selects the corruption:
	//
	//	drop-port-entry — switch Switch's port Port loses filter FilterID
	//	                  (mis-dropped reconciler delta → black hole)
	//	redirect-port   — filter FilterID on Switch moves from Port to
	//	                  ToPort (wrong placement → black hole and/or
	//	                  spurious delivery)
	//	narrow-approx   — filter FilterID's α-approximation is replaced
	//	                  with Expr network-wide (wrong α cut: an
	//	                  under-approximation starves the delivering
	//	                  edge → black hole at the α boundary)
	//
	// The covering family corrupts subsumption-reduced tables
	// (internal/routing/cover), simulating defects in the covering
	// forest's uncover/promote machinery:
	//
	//	dropped-uncover — covering root FilterID vanishes from every
	//	                  port network-wide without its covered children
	//	                  being promoted (the uncover delta lost its
	//	                  install half → black hole for root AND
	//	                  children)
	//	stale-cover     — at Switch's port Port, promoted entry FilterID
	//	                  is replaced by Filter, the broader parent that
	//	                  should have been uncovered (stale refcount kept
	//	                  the root alive, the child never landed →
	//	                  spurious delivery of broad-but-not-narrow
	//	                  packets)
	//	over-broad-cover — filter FilterID's Expr and Approx are replaced
	//	                  by the broader Expr network-wide (an implication
	//	                  oracle that wrongly widened a root → spurious
	//	                  delivery)
	Op string `json:"op"`
	// Switch is the switch ID (fat tree) or graph vertex (tree).
	Switch int `json:"switch"`
	// Port and ToPort are local port indices.
	Port   int `json:"port,omitempty"`
	ToPort int `json:"to_port,omitempty"`
	// FilterID indexes the routing result's global filter table.
	FilterID int `json:"filter_id,omitempty"`
	// Expr carries the replacement expression (narrow-approx,
	// over-broad-cover).
	Expr subscription.Expr `json:"-"`
	// Filter carries the stale parent entry to install (stale-cover).
	Filter *routing.Filter `json:"-"`
}

// Apply performs the mutation on a routing result in place.
// Filter pointers are shared across FIBs, so narrow-approx propagates
// network-wide exactly like a controller computing the wrong cut once.
func (m NetMutation) Apply(r *routing.Result) error {
	switch m.Op {
	case "drop-port-entry":
		_, fs, _, err := m.entry(r)
		if err != nil {
			return err
		}
		delete(fs, m.FilterID)
	case "redirect-port":
		fib, fs, f, err := m.entry(r)
		if err != nil {
			return err
		}
		delete(fs, m.FilterID)
		if fib.Ports[m.ToPort] == nil {
			fib.Ports[m.ToPort] = make(routing.FilterSet)
		}
		fib.Ports[m.ToPort][m.FilterID] = f
	case "narrow-approx":
		if m.Expr == nil {
			return fmt.Errorf("corrupt: narrow-approx needs an expression")
		}
		f, err := netFilter(r.Filters, m.FilterID)
		if err != nil {
			return err
		}
		f.Approx = m.Expr
	case "dropped-uncover":
		found := false
		for _, fib := range r.FIBs {
			for _, fs := range fib.Ports {
				if _, ok := fs[m.FilterID]; ok {
					delete(fs, m.FilterID)
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("corrupt: filter %d installed nowhere", m.FilterID)
		}
	case "stale-cover":
		if m.Filter == nil {
			return fmt.Errorf("corrupt: stale-cover needs the stale parent filter")
		}
		_, fs, _, err := m.entry(r)
		if err != nil {
			return err
		}
		delete(fs, m.FilterID)
		fs[m.Filter.ID] = m.Filter
	case "over-broad-cover":
		if m.Expr == nil {
			return fmt.Errorf("corrupt: over-broad-cover needs an expression")
		}
		f, err := netFilter(r.Filters, m.FilterID)
		if err != nil {
			return err
		}
		f.Expr = m.Expr
		f.Approx = m.Expr
	default:
		return fmt.Errorf("corrupt: unknown network op %q", m.Op)
	}
	return nil
}

// entry resolves the port entry m names: filter FilterID on switch
// Switch's port Port.
func (m NetMutation) entry(r *routing.Result) (*routing.FIB, routing.FilterSet, *routing.Filter, error) {
	if m.Switch < 0 || m.Switch >= len(r.FIBs) {
		return nil, nil, nil, fmt.Errorf("corrupt: no switch %d", m.Switch)
	}
	fib := r.FIBs[m.Switch]
	fs, ok := fib.Ports[m.Port]
	if !ok {
		return nil, nil, nil, fmt.Errorf("corrupt: switch %d has no port %d", m.Switch, m.Port)
	}
	f, ok := fs[m.FilterID]
	if !ok {
		return nil, nil, nil, fmt.Errorf("corrupt: switch %d port %d has no filter %d", m.Switch, m.Port, m.FilterID)
	}
	return fib, fs, f, nil
}

func netFilter(fs []*routing.Filter, id int) (*routing.Filter, error) {
	for _, f := range fs {
		if f.ID == id {
			return f, nil
		}
	}
	return nil, fmt.Errorf("corrupt: no filter %d", id)
}

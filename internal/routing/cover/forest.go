package cover

import (
	"sort"

	"camus/internal/subscription"
)

// Delta is the table-entry consequence of one forest mutation. The
// caller must apply Uninstall and Install in the same atomic batch:
// for an uncovering (root removal) the uninstalled root and the
// promoted children land in one epoch, so no packet window exists in
// which a still-subscribed filter has no covering entry.
type Delta struct {
	// Install lists expressions that must gain a table entry.
	Install []subscription.Expr
	// Uninstall lists expressions whose table entry must go away.
	Uninstall []subscription.Expr
}

// Empty reports whether the mutation changed no table entries.
func (d Delta) Empty() bool { return len(d.Install) == 0 && len(d.Uninstall) == 0 }

// node is one filter in the forest. refs counts retain/release pairs
// from the placement layer; parent == nil marks a root (installed
// entry), everything else is a covered obligation.
type node struct {
	key  string
	expr subscription.Expr
	refs int
	// seq is the node's add order: an uncovering promotes orphans in
	// it, so of two equivalent orphans the one added first survives.
	seq      int
	parent   *node
	children map[string]*node
}

// Forest maintains the subsumption forest for one (switch, port).
//
// Invariants:
//
//   - every non-root node implies its parent (hence, transitively, its
//     root), so the installed roots forward a superset of every
//     tracked filter's traffic;
//   - no root implies another root (capture completeness: a new root
//     adopts every existing root it covers), so the installed set is
//     an antichain and entry count is minimal w.r.t. the oracle's
//     verdicts;
//   - the node set is exactly the distinct filter expressions placed
//     at the port, so Size() is the entry count full installation
//     would use and Roots() the count covering uses.
//
// Roots are scanned by sorted expression key and an uncovering's orphans
// in add order, so forests evolve deterministically for a given
// operation sequence, and of equivalent filters the one added first is
// the installed one. Not safe for
// concurrent use; the control plane mutates forests only under its
// registry lock.
type Forest struct {
	im    *Implier
	nodes map[string]*node
	seq   int
	ctr   Counters
}

// Counters accumulates the forest's covering activity over its whole
// lifetime. The instantaneous gauges (Roots, Size) can read zero at an
// unlucky moment — e.g. a churn stream whose final live set holds no
// implication pair — while these monotone totals still prove covering
// did work.
type Counters struct {
	// CoveredAdds counts new filters filed under an existing covering
	// root: installs that full installation would have performed and
	// covering elided.
	CoveredAdds int64
	// Captures counts existing roots adopted by a broader new root —
	// each one a table entry removed without any unsubscribe.
	Captures int64
	// Promotions counts covered children re-installed as roots by an
	// uncovering (always in the same batch as the root's delete).
	Promotions int64
}

// Counters returns the forest's lifetime covering totals.
func (f *Forest) Counters() Counters { return f.ctr }

// NewForest builds an empty forest over the given implication oracle.
func NewForest(im *Implier) *Forest {
	return &Forest{im: im, nodes: make(map[string]*node)}
}

// Add retains one reference to expr and returns the table delta. A
// known expression only bumps its refcount. A new expression either
// attaches under a root that covers it (no table change), or becomes a
// root itself: its entry is installed and any existing roots it covers
// are captured — their entries uninstalled, their subtrees re-homed
// beneath the new root.
func (f *Forest) Add(expr subscription.Expr) Delta {
	key := expr.String()
	if n := f.nodes[key]; n != nil {
		n.refs++
		return Delta{}
	}
	f.seq++
	n := &node{key: key, expr: expr, refs: 1, seq: f.seq, children: make(map[string]*node)}
	for _, r := range f.sortedRoots() {
		if f.im.Implies(expr, r.expr) {
			f.nodes[key] = n
			attach(n, r)
			f.ctr.CoveredAdds++
			return Delta{}
		}
	}
	d := Delta{Install: []subscription.Expr{expr}}
	for _, r := range f.sortedRoots() {
		if f.im.Implies(r.expr, expr) {
			attach(r, n)
			d.Uninstall = append(d.Uninstall, r.expr)
		}
	}
	f.nodes[key] = n
	f.ctr.Captures += int64(len(d.Uninstall))
	return d
}

// Remove releases one reference to expr and returns the table delta.
// Dropping a covered obligation changes nothing (its children stay
// covered by transitivity through the grandparent). Dropping a root is
// an uncovering: the root's entry is uninstalled and each child is
// re-homed — under another root when one still covers it, otherwise
// promoted to root with a fresh install — all in one delta so the
// caller can apply it gap-free.
func (f *Forest) Remove(expr subscription.Expr) Delta {
	key := expr.String()
	n := f.nodes[key]
	if n == nil {
		return Delta{}
	}
	n.refs--
	if n.refs > 0 {
		return Delta{}
	}
	delete(f.nodes, key)
	if n.parent != nil {
		delete(n.parent.children, key)
		for _, c := range sortedChildren(n) {
			attach(c, n.parent)
		}
		return Delta{}
	}
	d := Delta{Uninstall: []subscription.Expr{expr}}
	// Orphans are re-homed in add order, each as Add would file it: an
	// orphan keeps its stale parent until its turn, so it is not yet a
	// root the earlier ones could attach to.
	orphans := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		orphans = append(orphans, c)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].seq < orphans[j].seq })
	var promoted []*node
	for _, c := range orphans {
		c.parent = nil
		attached := false
		for _, r := range f.sortedRoots() {
			if r != c && f.im.Implies(c.expr, r.expr) {
				attach(c, r)
				attached = true
				break
			}
		}
		if attached {
			continue
		}
		// A broader orphan captures the narrower ones promoted before it.
		kept := promoted[:0]
		for _, p := range promoted {
			if f.im.Implies(p.expr, c.expr) {
				attach(p, c)
			} else {
				kept = append(kept, p)
			}
		}
		promoted = append(kept, c)
	}
	for _, c := range promoted {
		d.Install = append(d.Install, c.expr)
	}
	f.ctr.Promotions += int64(len(d.Install))
	return d
}

// Covered reports whether expr is tracked as a covered obligation
// (present, but not installed).
func (f *Forest) Covered(expr subscription.Expr) bool {
	n := f.nodes[expr.String()]
	return n != nil && n.parent != nil
}

// Refs returns the reference count for expr (0 when absent).
func (f *Forest) Refs(expr subscription.Expr) int {
	if n := f.nodes[expr.String()]; n != nil {
		return n.refs
	}
	return 0
}

// Size is the number of distinct filters tracked — the entry count
// full installation would need for this port.
func (f *Forest) Size() int { return len(f.nodes) }

// Roots is the number of installed entries under covering.
func (f *Forest) Roots() int {
	n := 0
	for _, nd := range f.nodes {
		if nd.parent == nil {
			n++
		}
	}
	return n
}

func (f *Forest) sortedRoots() []*node {
	keys := make([]string, 0, len(f.nodes))
	for k, n := range f.nodes {
		if n.parent == nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*node, len(keys))
	for i, k := range keys {
		out[i] = f.nodes[k]
	}
	return out
}

func sortedChildren(n *node) []*node {
	keys := make([]string, 0, len(n.children))
	for k := range n.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*node, len(keys))
	for i, k := range keys {
		out[i] = n.children[k]
	}
	return out
}

func attach(child, parent *node) {
	child.parent = parent
	parent.children[child.key] = child
}

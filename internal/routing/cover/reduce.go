package cover

import (
	"sort"

	"camus/internal/routing"
	"camus/internal/subscription"
)

// ReduceStats summarizes one whole-policy covering pass: distinct
// installable entries across every (switch, port) before and after
// pruning.
type ReduceStats struct {
	Before int
	After  int
}

// Removed is the number of entries covering elided.
func (s ReduceStats) Removed() int { return s.Before - s.After }

// Ratio is the state-reduction factor Before/After (1 when nothing
// was elided or the policy is empty).
func (s ReduceStats) Ratio() float64 {
	if s.After == 0 {
		return 1
	}
	return float64(s.Before) / float64(s.After)
}

// ReduceResult prunes covered filters, in place, from every per-port
// filter set of a fat-tree routing result: a filter is dropped from a
// port when another filter on the same port has a broader effective
// expression (routing.FIB.Effective, the expression rule generation
// installs). MR match-all up ports are left alone — the constant-true
// entry is already minimal.
func ReduceResult(im *Implier, res *routing.Result) ReduceStats {
	var st ReduceStats
	for _, fib := range res.FIBs {
		for port, fs := range fib.Ports {
			if port == routing.UpPort && fib.MatchAllUp {
				st.Before++
				st.After++
				continue
			}
			reducePort(im, port, fs, fib.Effective, &st)
		}
	}
	return st
}

// ReduceTree is ReduceResult for a general-topology spanning-tree
// policy (effective expressions by routing.TreeFIB.Effective).
func ReduceTree(im *Implier, tr *routing.TreeResult) ReduceStats {
	var st ReduceStats
	for _, fib := range tr.FIBs {
		for port, fs := range fib.Ports {
			reducePort(im, port, fs, fib.Effective, &st)
		}
	}
	return st
}

// reducePort prunes one port's filter set in place by running the
// control plane's covering once: the port's effective expressions are
// added to a Forest in filter-ID order and every filter whose
// expression the forest files as a covered obligation is dropped. The
// surviving entries are the forest's roots — of two equivalent
// expressions the one added first — which is what the covering
// reconciler installs when the filters were subscribed in ID order.
func reducePort(im *Implier, port int, fs routing.FilterSet,
	effective func(port int, f *routing.Filter) subscription.Expr, st *ReduceStats) {
	ids := make([]int, 0, len(fs))
	for id := range fs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	exprs := make([]subscription.Expr, len(ids))
	f := NewForest(im)
	for i, id := range ids {
		exprs[i] = effective(port, fs[id])
		f.Add(exprs[i])
	}
	for i, id := range ids {
		if f.Covered(exprs[i]) {
			delete(fs, id)
		}
	}
	st.Before += f.Size()
	st.After += f.Roots()
}

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

// Reduce prunes covered filters, in place, from every per-port filter
// set of a routing result (fat tree or spanning tree) by running the
// control plane's covering once per port: the port's effective
// expressions (routing.FIB.Effective, the expressions rule generation
// installs) are added to a Forest in filter-ID order, and every filter
// whose expression the forest files as a covered obligation is dropped.
// The surviving entries are the forest's roots — of two equivalent
// expressions the one added first — which is what the covering
// reconciler installs when the filters were subscribed in ID order. MR
// match-all up ports are left alone — the constant-true entry is
// already minimal.
func Reduce(im *Implier, res *routing.Result) ReduceStats {
	var st ReduceStats
	for _, fib := range res.FIBs {
		for port, fs := range fib.Ports {
			if port == routing.UpPort && fib.MatchAllUp {
				st.Before++
				st.After++
				continue
			}
			ids := make([]int, 0, len(fs))
			for id := range fs {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			exprs := make([]subscription.Expr, len(ids))
			f := NewForest(im)
			for i, id := range ids {
				exprs[i] = fib.Effective(port, fs[id])
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
	}
	return st
}

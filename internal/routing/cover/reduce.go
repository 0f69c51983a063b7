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

// reducePort prunes one port's filter set in place. Identical
// effective expressions already collapse to one entry at rule
// generation, so work happens on the distinct-expression level: an
// expression is covered when another distinct expression on the port
// implies it is redundant; equivalent expressions keep the
// lexicographically first key. Every covered expression ends up
// implied by a surviving one — the cover relation (strictly broader,
// or equivalent with smaller key) is a strict partial order, so chains
// terminate at an uncovered maximal element.
func reducePort(im *Implier, port int, fs routing.FilterSet,
	effective func(port int, f *routing.Filter) subscription.Expr, st *ReduceStats) {
	byKey := make(map[string]subscription.Expr, len(fs))
	for _, f := range fs {
		e := effective(port, f)
		byKey[e.String()] = e
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st.Before += len(keys)

	covered := make(map[string]bool)
	for _, k := range keys {
		for _, g := range keys {
			if g == k {
				continue
			}
			if !im.Implies(byKey[k], byKey[g]) {
				continue
			}
			if im.Implies(byKey[g], byKey[k]) && g > k {
				continue // equivalent pair: the smaller key survives
			}
			covered[k] = true
			break
		}
	}
	for id, f := range fs {
		if covered[effective(port, f).String()] {
			delete(fs, id)
		}
	}
	st.After += len(keys) - len(covered)
}

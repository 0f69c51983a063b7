// Package cover implements subsumption-aware covering over installed
// filter tables: when every packet matching filter f also matches a
// broader filter g forwarded through the same port (f ⊑ g), installing
// f is redundant — g already forwards f's traffic — so the table entry
// is elided and f is tracked as a refcounted *covered obligation*
// instead.
//
// The package has two halves:
//
//   - Implier decides f ⊑ g symbolically on the repository's BDD path
//     (subscription.NormalizeRule → bdd.CoMatch, the co-match read
//     rulecheck uses too), memoized per expression pair;
//   - Forest maintains, for one (switch, port), the subsumption forest
//     over the filters placed there: table entries exist exactly for
//     forest roots, every non-root node implies its parent (and, by
//     transitivity, its root), and removing a root atomically reports
//     the re-installs for the children it uncovers, so the caller can
//     land the delete and the promotions in a single apply batch — the
//     FIB-caching "no cache-hiding gap" rule.
//
// Reduce runs that same Forest once per port over a whole precomputed
// routing policy (used by `camusc netcheck -covering` to certify that
// covering and full installation produce identical delivery cuts), so
// the certificate covers the entries the control plane installs.
//
// Covering is sound per port because forwarding through a port is the
// union of its filters: f ⊑ g implies f ∪ g = g, so dropping f leaves
// the port's forwarded set — and therefore every (filter, host)
// delivery cut — unchanged. Implication is always decided over the
// *effective* expression placed at the port (exact at delivering
// ports, α-approximated elsewhere), never across the exact/approx
// boundary, so no monotonicity assumption about Approximate is needed.
package cover

import (
	"slices"
	"sync"

	"camus/internal/bdd"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// DefaultMaxNodes bounds the two-rule implication diagram. Implication
// queries involve exactly two filters, so diagrams stay tiny compared
// with whole-table builds; the cap is a guard against pathological
// filters, not a working limit.
const DefaultMaxNodes = 1 << 18

// Implier answers subsumption queries f ⊑ g over a message spec,
// memoizing by expression string pair. Safe for concurrent use.
type Implier struct {
	sp       *spec.Spec
	maxNodes int

	mu   sync.Mutex
	memo map[[2]string]bool
}

// NewImplier builds an implication oracle for one spec. maxNodes ≤ 0
// selects DefaultMaxNodes.
func NewImplier(sp *spec.Spec, maxNodes int) *Implier {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	return &Implier{sp: sp, maxNodes: maxNodes, memo: make(map[[2]string]bool)}
}

// Implies reports whether every packet matching f also matches g
// (f ⊑ g). The decision is exact while the two-rule diagram fits the
// node budget; on overflow or normalization failure it conservatively
// answers false — under-covering installs entries a perfect oracle
// would elide, but never changes what a port forwards.
func (im *Implier) Implies(f, g subscription.Expr) bool {
	fk, gk := f.String(), g.String()
	if fk == gk || gk == subscription.True.String() {
		return true
	}
	key := [2]string{fk, gk}
	im.mu.Lock()
	defer im.mu.Unlock()
	if v, ok := im.memo[key]; ok {
		return v
	}
	v := im.decide(f, g)
	im.memo[key] = v
	return v
}

// decide runs the symbolic check: which of f (rule 0) and g (rule 1)
// match together, read off one diagram (bdd.CoMatch). f ⊑ g holds iff
// no terminal carries f without g. The builder's domain pruning keeps
// every root-to-terminal path satisfiable, so the read is exact; an
// unsatisfiable f reaches no terminal and so implies everything, which
// is the correct vacuous answer.
func (im *Implier) decide(f, g subscription.Expr) bool {
	var normalized []subscription.NormalizedRule
	for i, e := range []subscription.Expr{f, g} {
		nrs, err := subscription.NormalizeRule(&subscription.Rule{ID: i, Filter: e})
		if err != nil {
			return false
		}
		normalized = append(normalized, nrs...)
	}
	sets, err := bdd.CoMatch(im.sp, normalized, bdd.Options{MaxNodes: im.maxNodes})
	if err != nil {
		return false
	}
	for _, ids := range sets {
		if ids[0] == 0 && !slices.Contains(ids, 1) {
			return false
		}
	}
	return true
}

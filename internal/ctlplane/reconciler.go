// Package ctlplane is the live control plane the paper's runtime-update
// story requires (§V memoized recompilation, §VIII-G3 rule-update
// latency): a long-running service that turns individual subscribe /
// unsubscribe events into per-switch table-entry deltas and applies
// them to running switches through one Install per switch, instead of
// batch-redeploying the whole network.
//
// The package splits into a synchronous core and an asynchronous
// service. Reconciler (this file) owns the routing-placement registry —
// which (switch, port, filter) rules each host subscription expands to
// under Algorithm 1 — plus one compiler.Incremental per switch, and
// compiles coalesced rule batches into entry deltas. Service
// (service.go) layers per-switch apply workers, bounded queues, retry
// with backoff, and update-latency telemetry on top.
package ctlplane

import (
	"errors"
	"fmt"
	"sort"

	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/routing/cover"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// Classified errors for subscription maintenance.
var (
	// ErrUnknownFilter is returned when unsubscribing a filter ID that
	// is not installed (or belongs to a different host).
	ErrUnknownFilter = errors.New("ctlplane: filter not installed")
	// ErrBadHost is returned for a host ID outside the topology.
	ErrBadHost = errors.New("ctlplane: host out of range")
)

// RuleOp is one per-switch rule mutation derived from a subscription
// event: install Rule (Add true) or delete RuleID (Add false).
type RuleOp struct {
	Switch int
	Add    bool
	Rule   *subscription.Rule // set when Add
	RuleID int
}

// CompileResult is one switch's coalesced recompilation outcome.
type CompileResult struct {
	*compiler.Update
	// Full reports that the switch's engine was rebuilt from its live
	// rule registry (FullRebuild): the batched apply failed, or the
	// engine had outgrown the compaction bound. Compacted tells the two
	// apart.
	Full      bool
	Compacted bool
}

// filterRec is one live host subscription.
type filterRec struct {
	id     int
	host   int
	expr   subscription.Expr
	places []place
}

// place is one (switch, port, expression) the filter occupies.
type place struct {
	sw   int
	expr subscription.Expr
	key  placeKey
}

// placeKey names one distinct (port, expression) rule on a switch; expr
// is the expression's printed form, computed once per filter.
type placeKey struct {
	port int
	expr string
}

// placeRec refcounts one distinct (port, expression) rule on a switch —
// RulesForSwitch collapses duplicate filters per port, and the
// incremental path must agree entry-for-entry with that collapse.
type placeRec struct {
	ruleID int
	refs   int
	rule   *subscription.Rule
}

// swCompiler is the per-switch compile state. The registry fields
// (places, nextRule, forests) are guarded by the Service lock in Service
// use; the Incremental engine, rules and fresh belong to the switch's
// apply worker (single writer), and the Service keeps the programs it
// compiles.
type swCompiler struct {
	id       int
	inc      *compiler.Incremental
	places   map[placeKey]*placeRec
	rules    map[int]*subscription.Rule
	nextRule int
	// fresh is what the engine held (nodes + memo entries) right after the
	// last FullRebuild, 0 before the first: the compaction bound's unit.
	fresh int
	// forests holds, under covering mode, the per-port subsumption
	// forests (registry state: mutated only under the Service lock,
	// like places). Installed rules exist exactly for forest roots;
	// covered filters are tracked as refcounted obligations with no
	// table entry.
	forests map[int]*cover.Forest
}

// Reconciler owns the placement registry and the per-switch incremental
// compilers. It is a plain single-threaded type: the Service serializes
// registry mutations under its own lock and dedicates each switch's
// compile state to one worker; single-threaded callers
// (NewReconcilerWith's) need no locking at all.
type Reconciler struct {
	net   *topology.Network
	sp    *spec.Spec
	ropts routing.Options

	filters    map[int]*filterRec
	nextFilter int
	switches   []*swCompiler

	// covering enables subsumption-aware state reduction: per-port
	// forests elide entries for filters implied by a broader filter on
	// the same port, and uncovering re-installs promoted children in
	// the same coalesced batch (no delivery gap). im is the shared
	// implication oracle.
	covering bool
	im       *cover.Implier
}

// The compaction bound. An engine never forgets: every node it
// hash-consed and every pair of its merge tree it memoized stays until the
// engine is dropped, so under churn nodes+memo grows with the batches
// applied while the live rule set stays the same size. (The merge's
// recursive subproblems go to a lossy computed table of bounded size,
// which CacheSize does not count; nodes are most of the count.) Compile
// starts a switch over from a fresh engine (FullRebuild) once the engine
// retains more than compactFactor × what the switch's last fresh engine
// held right after its rebuild — the rebuild makes about that many
// entries, so its cost is 1/(compactFactor-1) of the applies that made
// the garbage — and never
// below compactFloor, which stands in for the fresh size until the first
// rebuild measures it and keeps small programs from compacting every few
// batches. DESIGN.md §9 has the measurement behind the two numbers.
const (
	compactFactor = 8
	compactFloor  = 1 << 15
)

// newReconciler builds an empty reconciler for a network from a
// resolved config. Every switch starts with an empty program except
// for the MR policy's static constant-true up-port rule, which is
// installed on the first Compile.
func newReconciler(cfg config) (*Reconciler, error) {
	net, sp, ropts := cfg.Net, cfg.Spec, cfg.Routing
	r := &Reconciler{
		net:      net,
		sp:       sp,
		ropts:    ropts,
		filters:  make(map[int]*filterRec),
		covering: cfg.Covering,
	}
	if r.covering {
		r.im = cover.NewImplier(sp, 0)
	}
	for _, s := range net.Switches {
		inc, err := r.newIncremental(s.ID)
		if err != nil {
			return nil, fmt.Errorf("ctlplane: switch %s: %w", s.Name, err)
		}
		r.switches = append(r.switches, &swCompiler{
			id:     s.ID,
			inc:    inc,
			places: make(map[placeKey]*placeRec),
			rules:  make(map[int]*subscription.Rule),
		})
	}
	// The constant-true filter of MR's up ports is permanent, so pin its
	// refcount.
	for _, p := range routing.MatchAll(net, ropts.Policy) {
		r.retain(place{
			sw:   p.Switch,
			expr: subscription.True,
			key:  placeKey{p.Port, subscription.True.String()},
		})
	}
	return r, nil
}

// places expands one host filter into the (switch, port, expression)
// triples it occupies: routing.Places says where, routing.Filter which
// expression — exact at the access port, the α-approximation
// elsewhere. The access place is first.
func (r *Reconciler) places(host int, exact subscription.Expr) []place {
	f := routing.Filter{Expr: exact, Approx: routing.Approximate(exact, r.ropts.Alpha)}
	exactKey, approxKey := f.Expr.String(), f.Approx.String()
	where := routing.Places(r.net, r.ropts.Policy, host)
	out := make([]place, len(where))
	for i, p := range where {
		delivering := r.net.Switches[p.Switch].HostFacing(p.Port)
		key := approxKey
		if delivering {
			key = exactKey
		}
		out[i] = place{sw: p.Switch, expr: f.Effective(delivering), key: placeKey{p.Port, key}}
	}
	return out
}

// retain bumps the refcount of a place, returning the rule ops the
// transition implies: in full mode an install on 0→1, under covering
// whatever the port forest decides (nothing when the filter is covered,
// an install plus captured-root deletes when it becomes a new root).
func (r *Reconciler) retain(pl place) []RuleOp {
	sc := r.switches[pl.sw]
	if r.covering {
		return r.coverOps(sc, pl.key.port, sc.forest(r.im, pl.key.port).Add(pl.expr))
	}
	if pr, ok := sc.places[pl.key]; ok {
		pr.refs++
		return nil
	}
	return []RuleOp{sc.install(pl.key, pl.expr)}
}

// install registers a new rule for (port, expression) under the switch's
// next rule ID and returns the op that adds it.
func (sc *swCompiler) install(key placeKey, expr subscription.Expr) RuleOp {
	rule := &subscription.Rule{
		ID:     sc.nextRule,
		Filter: expr,
		Action: subscription.FwdAction(key.port),
	}
	sc.nextRule++
	sc.places[key] = &placeRec{ruleID: rule.ID, refs: 1, rule: rule}
	return RuleOp{Switch: sc.id, Add: true, Rule: rule, RuleID: rule.ID}
}

// release drops one reference, returning the implied ops: a delete on
// 1→0 in full mode; under covering an uncovering (delete of the root
// plus installs for every promoted child, in one batch so delivery
// never gaps) when the released filter was a forest root.
func (r *Reconciler) release(pl place) []RuleOp {
	sc := r.switches[pl.sw]
	if r.covering {
		return r.coverOps(sc, pl.key.port, sc.forest(r.im, pl.key.port).Remove(pl.expr))
	}
	pr, ok := sc.places[pl.key]
	if !ok {
		return nil
	}
	pr.refs--
	if pr.refs > 0 {
		return nil
	}
	delete(sc.places, pl.key)
	return []RuleOp{{Switch: pl.sw, Add: false, RuleID: pr.ruleID}}
}

// forest returns the port's subsumption forest, creating it on first
// use (covering mode only).
func (sc *swCompiler) forest(im *cover.Implier, port int) *cover.Forest {
	if sc.forests == nil {
		sc.forests = make(map[int]*cover.Forest)
	}
	f := sc.forests[port]
	if f == nil {
		f = cover.NewForest(im)
		sc.forests[port] = f
	}
	return f
}

// coverOps translates a forest delta into rule ops against the
// installed-entry registry. Uninstalls precede installs; both halves of
// an uncovering travel in one slice and therefore land in one coalesced
// Compile batch — a single Install with no window in which a
// still-subscribed filter lacks a covering entry.
func (r *Reconciler) coverOps(sc *swCompiler, port int, d cover.Delta) []RuleOp {
	if d.Empty() {
		return nil
	}
	ops := make([]RuleOp, 0, len(d.Install)+len(d.Uninstall))
	for _, e := range d.Uninstall {
		key := placeKey{port, e.String()}
		pr := sc.places[key]
		if pr == nil {
			continue // forest and registry out of sync; nothing to delete
		}
		delete(sc.places, key)
		ops = append(ops, RuleOp{Switch: sc.id, Add: false, RuleID: pr.ruleID})
	}
	for _, e := range d.Install {
		ops = append(ops, sc.install(placeKey{port, e.String()}, e))
	}
	return ops
}

// PredictAdd is the non-mutating mirror of AddFilter: it returns, per
// switch, how many new table rules adding the filter would install,
// without touching the registry, refcounts, or forests. The admission
// layer (WithAdmission) calls it before AddFilter so an oversized
// delta is rejected with zero state to roll back. The count is
// conservative under covering: a new root's captures could *shrink*
// other tables, but admission only needs an upper bound.
func (r *Reconciler) PredictAdd(host int, expr subscription.Expr) (map[int]int, error) {
	if host < 0 || host >= len(r.net.Hosts) {
		return nil, fmt.Errorf("%w: %d", ErrBadHost, host)
	}
	adds := make(map[int]int)
	for _, pl := range r.places(host, expr) {
		sc := r.switches[pl.sw]
		if r.covering {
			if f := sc.forests[pl.key.port]; f != nil && (f.Covered(pl.expr) || f.Refs(pl.expr) > 0) {
				continue // elided by an existing root, or already placed
			}
		} else if pr, ok := sc.places[pl.key]; ok && pr.refs > 0 {
			continue // refcounted: no new rule
		}
		adds[pl.sw]++
	}
	return adds, nil
}

// AddFilter registers one host subscription and returns its filter ID
// plus the per-switch rule ops the event expands to (empty when every
// placement was already covered by an identical filter).
func (r *Reconciler) AddFilter(host int, expr subscription.Expr) (int, []RuleOp, error) {
	if host < 0 || host >= len(r.net.Hosts) {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadHost, host)
	}
	f := &filterRec{id: r.nextFilter, host: host, expr: expr, places: r.places(host, expr)}
	r.nextFilter++
	r.filters[f.id] = f
	var ops []RuleOp
	for _, pl := range f.places {
		ops = append(ops, r.retain(pl)...)
	}
	return f.id, ops, nil
}

// RemoveFilter unregisters a subscription by filter ID. host guards
// against cross-host removal; pass -1 to skip the ownership check.
func (r *Reconciler) RemoveFilter(host, id int) ([]RuleOp, error) {
	f, ok := r.filters[id]
	if !ok || (host >= 0 && f.host != host) {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownFilter, id)
	}
	delete(r.filters, id)
	var ops []RuleOp
	for _, pl := range f.places {
		ops = append(ops, r.release(pl)...)
	}
	return ops, nil
}

// Filters returns the live filter IDs for a host (sorted).
func (r *Reconciler) Filters(host int) []int {
	var out []int
	for id, f := range r.filters {
		if f.host == host {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// HostFilters returns every live subscription with its host binding,
// sorted by filter ID — the ground truth a network-wide validator
// checks delivery against.
func (r *Reconciler) HostFilters() []HostFilter {
	out := make([]HostFilter, 0, len(r.filters))
	for id, f := range r.filters {
		out = append(out, HostFilter{ID: id, Host: f.host, Expr: f.expr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Program returns a switch's last compiled program (the empty program
// before its first Compile).
func (r *Reconciler) Program(sw int) *compiler.Program { return r.switches[sw].inc.Program() }

// Rules returns a switch's live rule set sorted by rule ID (the
// canonical merge order).
func (r *Reconciler) Rules(sw int) []*subscription.Rule {
	sc := r.switches[sw]
	out := make([]*subscription.Rule, 0, len(sc.rules))
	for _, rule := range sc.rules {
		out = append(out, rule)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Compile applies a coalesced batch of rule ops to one switch's
// incremental engine and returns the resulting program + entry delta.
// When the batched apply fails, or leaves the engine over the compaction
// bound, it rebuilds the switch from the live rule registry. Ops for
// other switches are rejected.
func (r *Reconciler) Compile(sw int, ops []RuleOp) (*CompileResult, error) {
	sc := r.switches[sw]
	var add []*subscription.Rule
	var remove []int
	// A remove can name a rule added earlier in the same coalesced batch
	// (subscribe and unsubscribe of one filter queued together); the pair
	// cancels out instead of reaching the engine, which has never seen
	// the rule.
	pendingAdd := make(map[int]int) // rule ID → index into add
	for _, op := range ops {
		if op.Switch != sw {
			return nil, fmt.Errorf("ctlplane: op for switch %d applied to %d", op.Switch, sw)
		}
		if op.Add {
			pendingAdd[op.RuleID] = len(add)
			add = append(add, op.Rule)
			sc.rules[op.RuleID] = op.Rule
		} else {
			if i, ok := pendingAdd[op.RuleID]; ok {
				add[i] = nil
				delete(pendingAdd, op.RuleID)
			} else {
				remove = append(remove, op.RuleID)
			}
			delete(sc.rules, op.RuleID)
		}
	}
	live := add[:0]
	for _, rule := range add {
		if rule != nil {
			live = append(live, rule)
		}
	}
	add = live
	up, err := sc.inc.Apply(add, remove)
	if err != nil {
		// The engine may hold a partial batch; recover from the registry.
		res, ferr := r.FullRebuild(sw)
		if ferr != nil {
			return nil, fmt.Errorf("ctlplane: apply failed (%v); full rebuild failed: %w", err, ferr)
		}
		return res, nil
	}
	if nodes, memo := sc.inc.CacheSize(); nodes+memo > max(compactFloor, compactFactor*sc.fresh) {
		res, ferr := r.FullRebuild(sw)
		if ferr != nil {
			return nil, ferr
		}
		// Report the incremental delta (what changed semantically); the
		// rebuilt program is structurally identical rule-for-rule.
		res.AddedEntries, res.RemovedEntries, res.ReusedEntries = up.AddedEntries, up.RemovedEntries, up.ReusedEntries
		res.Compacted = true
		return res, nil
	}
	return &CompileResult{Update: up}, nil
}

// FullRebuild discards a switch's engine (and everything it memoized)
// and recompiles the live rule registry from scratch — the recovery path
// after an apply error, and the compaction step.
func (r *Reconciler) FullRebuild(sw int) (*CompileResult, error) {
	sc := r.switches[sw]
	inc, err := r.newIncremental(sw)
	if err != nil {
		return nil, err
	}
	up, err := inc.Add(r.Rules(sw)...)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: full rebuild of switch %d: %w", sw, err)
	}
	sc.inc = inc
	nodes, memo := inc.CacheSize()
	sc.fresh = nodes + memo
	return &CompileResult{Update: up, Full: true}, nil
}

// newIncremental returns an empty compiler for a switch. Stateful
// predicates run only at the hop before the subscriber (§II), exactly as
// controller.Deploy configures batch compiles.
func (r *Reconciler) newIncremental(sw int) (*compiler.Incremental, error) {
	s := r.net.Switches[sw]
	return compiler.NewIncremental(r.sp, compiler.Options{LastHopPort: s.HostFacing})
}

// EngineSize reports what one switch's incremental engine retains: BDD
// nodes and the merge tree's memo entries — the quantity the compaction
// bound holds down — and the bytes of memory behind them, the computed
// table's included.
func (r *Reconciler) EngineSize(sw int) (nodes, memoEntries, bytes int64) {
	inc := r.switches[sw].inc
	n, m := inc.CacheSize()
	return int64(n), int64(m), int64(inc.CacheBytes())
}

// Covering reports whether subsumption-aware covering is enabled.
func (r *Reconciler) Covering() bool { return r.covering }

// CoverStats reports covering telemetry across every per-port forest:
// entries is the number of installed roots (actual table rules),
// obligations the number of covered filters elided from the tables.
// Full installation would use entries+obligations rules; both are 0
// when covering is off.
func (r *Reconciler) CoverStats() (entries, obligations int) {
	for _, sc := range r.switches {
		for _, f := range sc.forests {
			roots := f.Roots()
			entries += roots
			obligations += f.Size() - roots
		}
	}
	return entries, obligations
}

// CoverTotals sums the lifetime covering counters across every
// per-port forest — monotone evidence of covering activity that
// survives moments when the instantaneous gauges read zero.
func (r *Reconciler) CoverTotals() cover.Counters {
	var c cover.Counters
	for _, sc := range r.switches {
		for _, f := range sc.forests {
			ctr := f.Counters()
			c.CoveredAdds += ctr.CoveredAdds
			c.Captures += ctr.Captures
			c.Promotions += ctr.Promotions
		}
	}
	return c
}

// CoveredFilters returns the live filter IDs whose exact access-port
// entry is elided because a broader filter on the same port covers it
// (nil when covering is off).
func (r *Reconciler) CoveredFilters() map[int]bool {
	if !r.covering {
		return nil
	}
	out := make(map[int]bool)
	for id, f := range r.filters {
		pl := f.places[0] // the access placement is always first
		sc := r.switches[pl.sw]
		if fo := sc.forests[pl.key.port]; fo != nil && fo.Covered(pl.expr) {
			out[id] = true
		}
	}
	return out
}

package compiler

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"camus/internal/bdd"
	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// UpdateActionName is the internal action that feeds a packet into a
// stateful aggregate register. The compiler synthesizes one rule per
// (stateful rule, aggregate): the aggregate updates whenever the REST of
// the filter matches (paper §II), independent of the stateful predicate's
// own outcome.
const UpdateActionName = "__update"

// Options configure dynamic compilation.
type Options struct {
	// BDD options (field order, pruning ablation).
	BDD bdd.Options
	// DisableExactOpt turns off exact-match extraction (§V-E #2):
	// every stage is realized in TCAM. Ablation only.
	DisableExactOpt bool
	// DisableCompression turns off low-resolution domain mapping
	// (§V-E #3). Ablation only.
	DisableCompression bool
	// CompressionThreshold is the maximum number of distinct comparison
	// constants for a field to qualify for domain compression (the
	// mapped domain must fit 8 bits).
	CompressionThreshold int
	// MaxEntries aborts compilation when a single switch program exceeds
	// this many table entries (0 = unlimited); a guard against
	// pathological workloads.
	MaxEntries int
	// LastHop marks the program as running on a last-hop (host-facing)
	// switch: stateful predicates are evaluated and updated here. On
	// non-last-hop switches stateful atoms are erased (treated as true)
	// because re-evaluating them on multiple devices gives wrong results
	// (§II: "it only evaluates stateful functions at the last hop").
	LastHop bool
	// LastHopPort refines LastHop per rule: when set, a rule keeps its
	// stateful atoms only if every fwd port it targets is host-facing
	// (the hop immediately before a subscriber). Rules without fwd ports
	// (custom actions) fall back to LastHop. Used by the controller,
	// where one ToR program mixes host-facing and transit rules.
	LastHopPort func(port int) bool
	// DisableValidityGuards skips the implicit valid(header)==1 guards
	// (P4 isValid()) added to every rule. Only for workloads where every
	// packet is known to carry every referenced header.
	DisableValidityGuards bool
	// Parallelism bounds the worker count for the parallelizable
	// compilation stages: rule normalization, per-rule BDD chain
	// construction, and (via the controller) per-switch program builds.
	// 0 means GOMAXPROCS. The emitted program is identical for every
	// value — batch-built diagrams are renumbered into a deterministic
	// DFS order before table emission, and the order-sensitive OR-merge
	// always runs sequentially.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.CompressionThreshold == 0 {
		o.CompressionThreshold = 120
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BDD.Parallelism == 0 {
		o.BDD.Parallelism = o.Parallelism
	}
	return o
}

// parallelNormalizeFanout is the rule count below which normalization
// stays sequential: goroutine + slot bookkeeping costs more than the
// work it spreads.
const parallelNormalizeFanout = 64

// normalizeRules runs subscription.NormalizeRule over a rule batch,
// fanning out across `workers` goroutines when the batch is large.
// Results keep input order (per-rule result slots), so downstream
// compilation sees exactly the sequence a sequential loop produces.
func normalizeRules(rules []*subscription.Rule, workers int) ([]subscription.NormalizedRule, error) {
	perRule, err := normalizeRulesPer(rules, workers)
	if err != nil {
		return nil, err
	}
	var normalized []subscription.NormalizedRule
	for _, nrs := range perRule {
		normalized = append(normalized, nrs...)
	}
	return normalized, nil
}

// normalizeRulesPer is normalizeRules keeping one result slot per input
// rule (Incremental.Apply needs per-rule grouping for removal tracking).
func normalizeRulesPer(rules []*subscription.Rule, workers int) ([][]subscription.NormalizedRule, error) {
	perRule := make([][]subscription.NormalizedRule, len(rules))
	if workers > 1 && len(rules) >= parallelNormalizeFanout {
		var (
			next     atomic.Int64
			firstErr atomic.Pointer[error]
			wg       sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(rules) || firstErr.Load() != nil {
						return
					}
					nrs, err := subscription.NormalizeRule(rules[i])
					if err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
					perRule[i] = nrs
				}
			}()
		}
		wg.Wait()
		if ep := firstErr.Load(); ep != nil {
			return nil, *ep
		}
	} else {
		for i, r := range rules {
			nrs, err := subscription.NormalizeRule(r)
			if err != nil {
				return nil, err
			}
			perRule[i] = nrs
		}
	}
	return perRule, nil
}

// Compile translates a rule set into a switch program.
func Compile(sp *spec.Spec, rules []*subscription.Rule, opts Options) (*Program, error) {
	opts = opts.withDefaults()
	normalized, err := normalizeRules(rules, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return CompileNormalized(sp, normalized, opts)
}

// CompileNormalized compiles already-normalized rules.
func CompileNormalized(sp *spec.Spec, rules []subscription.NormalizedRule, opts Options) (*Program, error) {
	opts = opts.withDefaults()
	expanded := expandStateful(rules, opts)
	if !opts.DisableValidityGuards {
		expanded = injectValidityGuards(expanded)
	}
	d, err := bdd.BuildNormalized(sp, expanded, opts.BDD)
	if err != nil {
		return nil, err
	}
	return FromBDD(d, opts)
}

// injectValidityGuards prepends valid(header)==1 atoms for every header a
// rule's conjunction reads, so rules never match packets lacking their
// headers (the parser's isValid() bits, §VI).
func injectValidityGuards(rules []subscription.NormalizedRule) []subscription.NormalizedRule {
	out := make([]subscription.NormalizedRule, 0, len(rules))
	var headers []string // reused scratch; a rule reads 1–3 headers
	for _, nr := range rules {
		headers = headers[:0]
		addHeader := func(h string) {
			if h == "" {
				return
			}
			for _, x := range headers {
				if x == h {
					return
				}
			}
			headers = append(headers, h)
		}
		for _, a := range nr.Conj {
			switch a.Ref.Kind {
			case subscription.PacketRef:
				addHeader(a.Ref.Field.Header)
			case subscription.AggregateRef:
				if a.Ref.Field != nil {
					addHeader(a.Ref.Field.Header)
				}
			}
		}
		if len(headers) == 0 {
			out = append(out, nr)
			continue
		}
		conj := make(subscription.Conjunction, 0, len(headers)+len(nr.Conj))
		for _, h := range headers {
			conj = append(conj, subscription.ValidAtom(h))
		}
		conj = append(conj, nr.Conj...)
		out = append(out, subscription.NormalizedRule{RuleID: nr.RuleID, Conj: conj, Action: nr.Action})
	}
	return out
}

// ruleIsLastHop decides whether a rule's stateful atoms are active: the
// rule must run on the hop immediately before its subscribers.
func ruleIsLastHop(nr subscription.NormalizedRule, opts Options) bool {
	if opts.LastHopPort == nil {
		return opts.LastHop
	}
	if len(nr.Action.Ports) == 0 {
		return opts.LastHop
	}
	for _, p := range nr.Action.Ports {
		if !opts.LastHopPort(p) {
			return false
		}
	}
	return true
}

// expandStateful rewrites stateful rules per the last-hop policy and
// synthesizes the register-update rules.
func expandStateful(rules []subscription.NormalizedRule, opts Options) []subscription.NormalizedRule {
	var out []subscription.NormalizedRule
	seenUpdate := make(map[string]bool)
	for _, nr := range rules {
		var stateless subscription.Conjunction
		var aggKeys []string
		for _, a := range nr.Conj {
			if a.Ref.Kind == subscription.AggregateRef {
				aggKeys = append(aggKeys, a.Ref.Key())
			} else {
				stateless = append(stateless, a)
			}
		}
		if len(aggKeys) == 0 {
			out = append(out, nr)
			continue
		}
		if !ruleIsLastHop(nr, opts) {
			// Erase stateful atoms: upstream switches must forward a
			// superset (completeness); the last hop enforces them.
			out = append(out, subscription.NormalizedRule{
				RuleID: nr.RuleID, Conj: stateless, Action: nr.Action,
			})
			continue
		}
		out = append(out, nr)
		// One update rule per (stateless context, aggregate). The update
		// fires whenever the rest of the filter matches.
		for _, key := range aggKeys {
			dedup := stateless.Key() + "|" + key
			if seenUpdate[dedup] {
				continue
			}
			seenUpdate[dedup] = true
			out = append(out, subscription.NormalizedRule{
				RuleID: nr.RuleID,
				Conj:   stateless,
				Action: subscription.Action{Name: UpdateActionName, Args: []string{key}},
			})
		}
	}
	return out
}

// FromBDD runs Algorithm 2: slice the BDD into field-specific components
// and translate each into a (state × range → state) table.
func FromBDD(d *bdd.BDD, opts Options) (*Program, error) {
	opts = opts.withDefaults()
	p := &Program{
		Spec: d.Universe.Spec,
		BDD:  d,
		Init: d.Root.ID,
	}
	reachable := d.Reachable()
	inComponent := make(map[int32]int) // node → field index (internal nodes)
	for _, n := range reachable {
		if !n.IsTerminal() {
			inComponent[n.ID] = n.Pred.FieldIdx
		}
	}
	// In nodes per component: the root (if internal) plus every node
	// whose parent lies outside its component.
	inNodes := make(map[int][]*bdd.Node)
	seenIn := make(map[int32]bool)
	addIn := func(n *bdd.Node) {
		if n.IsTerminal() || seenIn[n.ID] {
			return
		}
		seenIn[n.ID] = true
		f := n.Pred.FieldIdx
		inNodes[f] = append(inNodes[f], n)
	}
	addIn(d.Root)
	for _, n := range reachable {
		if n.IsTerminal() {
			continue
		}
		for _, next := range []*bdd.Node{n.Hi, n.Lo} {
			if next.IsTerminal() {
				continue
			}
			if next.Pred.FieldIdx != n.Pred.FieldIdx {
				addIn(next)
			}
		}
	}

	total := 0
	for _, fv := range d.Universe.Fields {
		t := &Table{
			Field:    fv,
			Defaults: make(map[StateID]StateID),
		}
		ins := inNodes[fv.Index]
		sort.Slice(ins, func(i, j int) bool { return ins[i].ID < ins[j].ID })
		for _, u := range ins {
			if err := emitPaths(t, fv, u, u, match.New(fv.Type())); err != nil {
				return nil, err
			}
			// Lo-walk: the state taken when every predicate on the field
			// is false (absent-field fallback).
			n := u
			for !n.IsTerminal() && n.Pred.FieldIdx == fv.Index {
				n = n.Lo
			}
			t.Defaults[u.ID] = n.ID
		}
		// Fields no live rule predicates on produce empty tables (the
		// incremental engine's universe holds every spec field); they are
		// pure pass-through stages, so don't materialize them.
		if len(t.Entries) == 0 && len(t.Defaults) == 0 {
			continue
		}
		classify(t, opts)
		total += len(t.Entries) + t.MapEntries
		if opts.MaxEntries > 0 && total > opts.MaxEntries {
			return nil, fmt.Errorf("compiler: table entries exceed limit %d", opts.MaxEntries)
		}
		p.Stages = append(p.Stages, t)
	}

	// Leaf table + multicast allocation.
	groupByKey := make(map[string]int)
	var terminals []*bdd.Node
	for _, n := range reachable {
		if n.IsTerminal() {
			terminals = append(terminals, n)
		}
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i].ID < terminals[j].ID })
	for _, n := range terminals {
		le := &LeafEntry{In: n.ID, Group: -1}
		// Split out the synthesized update directives.
		for _, c := range n.Actions.Custom {
			if c.Name == UpdateActionName {
				le.Updates = append(le.Updates, c.Args...)
			} else {
				le.Actions.Add(c)
			}
		}
		le.Actions.Merge(subscription.ActionSet{Ports: n.Actions.Ports})
		if len(le.Actions.Ports) > 1 {
			key := fmt.Sprint(le.Actions.Ports)
			id, ok := groupByKey[key]
			if !ok {
				id = len(p.Groups)
				groupByKey[key] = id
				p.Groups = append(p.Groups, MulticastGroup{
					ID:    id,
					Ports: append([]int(nil), le.Actions.Ports...),
				})
			}
			le.Group = id
		}
		p.Leaf = append(p.Leaf, le)
	}

	p.Reindex()
	p.Resources = estimate(p)
	return p, nil
}

// emitPaths walks every path from In node u through the field component,
// intersecting predicates (Algorithm 2 lines 5–9), emitting one entry per
// Out node reached.
func emitPaths(t *Table, fv *bdd.FieldVar, u, n *bdd.Node, c match.Constraint) error {
	if n.IsTerminal() || n.Pred.FieldIdx != fv.Index {
		t.Entries = append(t.Entries, &Entry{In: u.ID, Match: c, Out: n.ID})
		return nil
	}
	if err := emitPaths(t, fv, u, n.Hi, c.With(n.Pred.Rel, n.Pred.Const, true)); err != nil {
		return err
	}
	return emitPaths(t, fv, u, n.Lo, c.With(n.Pred.Rel, n.Pred.Const, false))
}

// classify applies the §V-E resource optimizations, choosing the table
// kind for a stage.
func classify(t *Table, opts Options) {
	if opts.DisableExactOpt {
		t.Kind = TernaryTable
		return
	}
	// An exact table stores one SRAM row per pinned value; residual
	// ("none of the values") entries realize as the table's default
	// action, so they don't disqualify the stage.
	allExact := true
	for _, e := range t.Entries {
		if _, ok := e.Match.Exact(); ok {
			continue
		}
		if e.Match.IsResidual() {
			continue
		}
		allExact = false
		break
	}
	if allExact {
		t.Kind = ExactTable
		return
	}
	// Low-resolution domain mapping: integer fields whose predicates use
	// few distinct constants can be mapped through a small value map.
	if !opts.DisableCompression && t.Field.Type() == spec.IntField {
		consts := make(map[int64]bool)
		for _, pr := range t.Field.Preds {
			consts[pr.Const.Int] = true
		}
		if len(consts) > 0 && len(consts) <= opts.CompressionThreshold {
			t.Kind = CompressedTable
			// The value map partitions the domain at each constant into
			// at most 2k+1 code ranges.
			t.MapEntries = 2*len(consts) + 1
			return
		}
	}
	t.Kind = TernaryTable
}

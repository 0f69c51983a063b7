// Package netcheck is the network-wide symbolic delivery verifier: it
// propagates packet classes hop-by-hop through every switch's compiled
// program (via the prover's independent cube semantics — no BDDs, no
// compiler matching code) from every ingress and certifies the paper's
// end-to-end claim for a concrete deployment:
//
//  1. no black holes — every packet matching a subscription reaches
//     all of its subscribers, under every up-path (ECMP/RR)
//     resolution;
//  2. no loops — no satisfiable packet class revisits a switch
//     (cycle detection on the class×switch graph);
//  3. exact delivery — a host receives only packets matching its own
//     subscriptions (evaluated with §II last-hop semantics), and never
//     the same class twice via distinct paths.
//
// The model mirrors the dataplane: a logical up-port (routing.UpPort)
// resolves to exactly one physical uplink per packet, so the checker
// enumerates all resolutions and demands the invariants under each; a
// packet is never forwarded back out its ingress port
// (pipeline.WithIngressDrop, on by default) nor up again once
// it arrived from above (netsim's fromUp suppression). Aggregate
// registers are per-switch state: a class crossing a link freezes its
// register constraints under the source switch's namespace (see
// prove.Class.Freeze), keeping register-conditional forwarding bugs
// distinguishable without conflating different switches' registers.
//
// Violations are reported as Findings with concrete counterexample
// packets; witnesses prefer all-zero registers so they replay on a
// cold dataplane (internal/analysis/replay.ConfirmNet).
package netcheck

import (
	"fmt"
	"sort"

	"camus/internal/analysis/prove"
	"camus/internal/analysis/report"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Finding kinds.
const (
	KindBlackHole = "black-hole"         // subscribed class never delivered
	KindLoop      = "loop"               // class revisits a switch
	KindSpurious  = "spurious-delivery"  // delivered class matches no subscription
	KindDuplicate = "duplicate-delivery" // class delivered twice via distinct paths
	KindOverflow  = "analysis-overflow"  // symbolic budget exhausted; verdict partial
)

// Subscription is one host's (or, on general topologies, node's) filter
// as the network-wide ground truth sees it: the exact expression, not
// the α-approximation.
type Subscription struct {
	ID   int
	Host int
	Expr subscription.Expr
}

// Options bound the symbolic exploration.
type Options struct {
	// MaxPaths bounds each per-switch symbolic execution (default
	// 20000).
	MaxPaths int
	// MaxClasses bounds the total number of class instances propagated
	// per (ingress, resolution) run (default 50000).
	MaxClasses int
	// MaxContexts bounds cube fan-out in the per-host delivery checks
	// (default 4096).
	MaxContexts int
	// MaxHops caps a copy's path length before it is reported as a
	// loop (default 16, netsim's hop limit).
	MaxHops int
	// Publishers, when non-empty, restricts the verified ingress set
	// (default: every host / every node). The certificate then covers
	// only those publishers.
	Publishers []int
	// Alpha is the α-discretization the deployment was routed with
	// (tree mode only). Transit traffic inside the approximation of a
	// live subscription may legitimately die at the hop where the exact
	// filter takes over, so the spurious check tolerates it; everything
	// else that dies mid-tree is mis-routed. Zero means no
	// approximation (exact filters everywhere).
	Alpha int64
}

func (o Options) withDefaults() Options {
	if o.MaxPaths == 0 {
		o.MaxPaths = 20000
	}
	if o.MaxClasses == 0 {
		o.MaxClasses = 50000
	}
	if o.MaxContexts == 0 {
		o.MaxContexts = 4096
	}
	if o.MaxHops == 0 {
		o.MaxHops = 16
	}
	return o
}

// Finding is one network invariant violation with its witness.
type Finding struct {
	// Kind is one of the Kind* constants.
	Kind string
	// FilterID is the subscription the finding is about (-1 when none).
	FilterID int
	// Host is the affected subscriber host/node (-1 for loops).
	Host int
	// Ingress is the publishing host/node the violation was found from.
	Ingress int
	// Switch names the switch where the violation manifests (the
	// revisited switch for loops, the delivering switch otherwise).
	Switch string
	// Path is the witness copy's switch path, ingress first.
	Path []string
	// Message is the human-readable statement.
	Message string
	// Cex is the concrete witness packet (nil for overflow findings).
	// Register witnesses, if any, use switch-qualified keys
	// ("s<id>|<aggkey>").
	Cex *prove.Assignment
}

// Result is one netcheck run.
type Result struct {
	Findings []Finding
	// Classes counts propagated class instances across all runs.
	Classes int
	// Overflowed reports that some symbolic budget was exhausted — the
	// verdict is then partial even with zero findings.
	Overflowed bool
}

// Ok reports a clean, complete certificate.
func (r *Result) Ok() bool { return len(r.Findings) == 0 && !r.Overflowed }

// Report renders the result into the unified envelope (tool
// "camusc-netcheck"). Callers that replay witnesses fill
// Counterexample.Packet and Confirmed.
func (r *Result) Report(file string) *report.Report {
	rep := &report.Report{Tool: "camusc-netcheck", File: file}
	for _, f := range r.Findings {
		rf := report.Finding{
			Tool: "camusc-netcheck", File: file, RuleID: f.FilterID,
			Kind: report.Kind(f.Kind), Severity: report.SevError,
			Message: f.Message,
		}
		if f.Kind == KindOverflow {
			rf.Severity = report.SevWarning
		}
		if f.Cex != nil {
			cex := &report.Counterexample{}
			for h, p := range f.Cex.Headers {
				if p {
					cex.Headers = append(cex.Headers, h)
				}
			}
			sort.Strings(cex.Headers)
			if len(f.Cex.Fields) > 0 {
				cex.Fields = make(map[string]string, len(f.Cex.Fields))
				for q, v := range f.Cex.Fields {
					cex.Fields[q] = v.String()
				}
			}
			if len(f.Cex.State) > 0 {
				cex.State = make(map[string]int64, len(f.Cex.State))
				for k, v := range f.Cex.State {
					cex.State[k] = v
				}
			}
			rf.Counterexample = cex
		}
		rep.Findings = append(rep.Findings, rf)
	}
	return rep
}

// delivery is one symbolic copy handed to a host (fat tree) or
// arriving at a subscriber node (general topology).
type delivery struct {
	cls  *prove.Class
	path []int
}

// checker carries one CheckFatTree/CheckTree invocation.
type checker struct {
	sp       *spec.Spec
	opts     Options
	subs     []Subscription
	matchers []*prove.Matcher // by subs index
	byHost   map[int][]int    // host → subs indices
	swName   func(int) string
	// tolerate, when non-empty (tree mode), holds the α-approximations
	// of every live subscription: dead transit classes inside one of
	// them are legitimate overshoot, not spurious traffic.
	tolerate []*prove.Matcher
	// cut is set by every overflow: a run clears it before propagating
	// and skips the black-hole check when the propagation set it, since
	// a cut exploration does not show that a delivery is absent.
	cut bool

	res  *Result
	seen map[string]bool
}

func newChecker(sp *spec.Spec, subs []Subscription, opts Options, lastHop bool, swName func(int) string) (*checker, error) {
	ck := &checker{
		sp: sp, opts: opts.withDefaults(), subs: subs, swName: swName,
		byHost: make(map[int][]int),
		res:    &Result{},
		seen:   make(map[string]bool),
	}
	for i, s := range subs {
		m, err := prove.NewMatcher(s.Expr, lastHop)
		if err != nil {
			return nil, fmt.Errorf("netcheck: filter %d: %w", s.ID, err)
		}
		ck.matchers = append(ck.matchers, m)
		ck.byHost[s.Host] = append(ck.byHost[s.Host], i)
	}
	return ck, nil
}

// add records a finding once per dedup key (violations are typically
// rediscovered from many ingresses; one witness per (kind, filter,
// host) is the useful report).
func (ck *checker) add(key string, f Finding) {
	if ck.seen[key] {
		return
	}
	ck.seen[key] = true
	ck.res.Findings = append(ck.res.Findings, f)
}

func (ck *checker) overflow(msg string) {
	ck.res.Overflowed, ck.cut = true, true
	ck.add("overflow|"+msg, Finding{
		Kind: KindOverflow, FilterID: -1, Host: -1, Ingress: -1,
		Message: msg,
	})
}

func (ck *checker) names(path []int) []string {
	out := make([]string, len(path))
	for i, s := range path {
		out[i] = ck.swName(s)
	}
	return out
}

// ns is the register namespace of a switch (prove.Class.Freeze keys).
func ns(sw int) string { return fmt.Sprintf("s%d", sw) }

// checkBlackHoles verifies invariant (1) for one (ingress, resolution)
// run: for every subscription on another host, the obligation class
// (everything matching the exact filter, under last-hop semantics for
// fat trees) minus the union of delivered classes must be empty.
// deliverNS maps a subscriber host to the register namespace its
// deliveries were recorded under (its access switch).
func (ck *checker) checkBlackHoles(ingress int, deliveries map[int][]delivery, deliverNS func(host int) string) {
	for si, sub := range ck.subs {
		if sub.Host == ingress {
			continue // the publisher never receives its own packet (ingress drop)
		}
		key := fmt.Sprintf("%s|%d|%d", KindBlackHole, sub.ID, sub.Host)
		if ck.seen[key] {
			continue
		}
		for _, obligation := range ck.matchers[si].RefineTrue(prove.NewClass()) {
			residual := []*prove.Class{obligation}
			for _, d := range deliveries[sub.Host] {
				var next []*prove.Class
				for _, r := range residual {
					next = append(next, r.Minus(d.cls, ck.sp)...)
				}
				residual = next
				if len(residual) > ck.opts.MaxContexts {
					ck.overflow(fmt.Sprintf("black-hole residual for filter %d exceeded %d cubes", sub.ID, ck.opts.MaxContexts))
					residual = nil
					break
				}
				if len(residual) == 0 {
					break
				}
			}
			found := false
			for _, r := range residual {
				a, ok := r.Concretize(ck.sp, deliverNS(sub.Host))
				if !ok {
					continue
				}
				ck.add(key, Finding{
					Kind: KindBlackHole, FilterID: sub.ID, Host: sub.Host, Ingress: ingress,
					Switch: deliverNS(sub.Host), Cex: a,
					Message: fmt.Sprintf("black hole: packet matching filter %d of host %d published from host %d is never delivered",
						sub.ID, sub.Host, ingress),
				})
				found = true
				break
			}
			if found {
				break
			}
		}
	}
}

// checkSpurious verifies the first half of invariant (3): every class
// in deliveries must match at least one of the receiving host's
// subscriptions.
func (ck *checker) checkSpurious(ingress int, deliveries map[int][]delivery, deliverNS func(host int) string) {
	hosts := make([]int, 0, len(deliveries))
	for h := range deliveries {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		key := fmt.Sprintf("%s|%d", KindSpurious, h)
		if ck.seen[key] {
			continue
		}
		for _, d := range deliveries[h] {
			residual := []*prove.Class{d.cls}
			conclusive := true
			negate := make([]*prove.Matcher, 0, len(ck.byHost[h])+len(ck.tolerate))
			for _, si := range ck.byHost[h] {
				negate = append(negate, ck.matchers[si])
			}
			negate = append(negate, ck.tolerate...)
			for _, m := range negate {
				var next []*prove.Class
				for _, r := range residual {
					nr, ok := m.RefineFalse(r, ck.opts.MaxContexts)
					if !ok {
						conclusive = false
						break
					}
					next = append(next, nr...)
				}
				if !conclusive || len(next) > ck.opts.MaxContexts {
					ck.overflow(fmt.Sprintf("spurious-delivery refinement for host %d exceeded %d cubes", h, ck.opts.MaxContexts))
					conclusive = false
					break
				}
				residual = next
				if len(residual) == 0 {
					break
				}
			}
			if !conclusive {
				continue
			}
			for _, r := range residual {
				a, ok := r.Concretize(ck.sp, deliverNS(h))
				if !ok {
					continue
				}
				ck.add(key, Finding{
					Kind: KindSpurious, FilterID: -1, Host: h, Ingress: ingress,
					Switch: deliverNS(h), Path: ck.names(d.path), Cex: a,
					Message: fmt.Sprintf("spurious delivery: host %d receives a packet (published from host %d, via %v) matching none of its %d subscriptions",
						h, ingress, ck.names(d.path), len(ck.byHost[h])),
				})
				break
			}
			if ck.seen[key] {
				break
			}
		}
	}
}

// checkDuplicates verifies the second half of invariant (3): no two
// distinct copies delivered to one host may share a packet class.
func (ck *checker) checkDuplicates(ingress int, deliveries map[int][]delivery, deliverNS func(host int) string) {
	hosts := make([]int, 0, len(deliveries))
	for h := range deliveries {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	for _, h := range hosts {
		key := fmt.Sprintf("%s|%d", KindDuplicate, h)
		if ck.seen[key] {
			continue
		}
		ds := deliveries[h]
		for i := 0; i < len(ds) && !ck.seen[key]; i++ {
			for j := i + 1; j < len(ds); j++ {
				both := ds[i].cls.Intersect(ds[j].cls, ck.sp)
				if both == nil {
					continue
				}
				a, ok := both.Concretize(ck.sp, deliverNS(h))
				if !ok {
					continue
				}
				ck.add(key, Finding{
					Kind: KindDuplicate, FilterID: -1, Host: h, Ingress: ingress,
					Switch: deliverNS(h), Path: ck.names(ds[j].path), Cex: a,
					Message: fmt.Sprintf("duplicate delivery: host %d receives the same packet twice (published from host %d, via %v and %v)",
						h, ingress, ck.names(ds[i].path), ck.names(ds[j].path)),
				})
				break
			}
		}
	}
}

// loopFinding records a class about to revisit a switch.
func (ck *checker) loopFinding(ingress, sw int, path []int, cls *prove.Class) {
	key := fmt.Sprintf("%s|%d", KindLoop, sw)
	if ck.seen[key] {
		return
	}
	a, _ := cls.Concretize(ck.sp, "")
	ck.add(key, Finding{
		Kind: KindLoop, FilterID: -1, Host: -1, Ingress: ingress,
		Switch: ck.swName(sw), Path: ck.names(append(append([]int(nil), path...), sw)),
		Cex:     a,
		Message: fmt.Sprintf("loop: a packet published from %d revisits %s (path %v)", ingress, ck.swName(sw), ck.names(path)),
	})
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

package prove

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"camus/internal/analysis/report"
	"camus/internal/subscription"
)

// Finding kinds reported by Check.
const (
	// KindMissingAction: a packet satisfying a rule's filter reaches a
	// leaf whose action set does not subsume the rule's action.
	KindMissingAction = "missing-action"
	// KindSpuriousAction: a leaf fires an action (port or custom) that
	// no matching rule justifies for some packet reaching it.
	KindSpuriousAction = "spurious-action"
	// KindMissingUpdate: a packet matching a stateful rule's stateless
	// context reaches a leaf that does not update the rule's aggregate.
	KindMissingUpdate = "missing-update"
	// KindSpuriousUpdate: a leaf updates an aggregate no rule's
	// stateless context justifies for some packet reaching it.
	KindSpuriousUpdate = "spurious-update"
	// KindGroupMismatch: a leaf's multicast group does not realize its
	// port set.
	KindGroupMismatch = "group-mismatch"
	// KindPartition: the program's parts do not partition the rules: a
	// rule in two parts, or a part holding a rule the set lacks.
	KindPartition = "part-partition"
	// KindOverflow: a symbolic budget was exhausted; the proof is
	// partial.
	KindOverflow = "analysis-overflow"
)

// Finding is one prover diagnostic. Divergence findings carry a
// concrete counterexample that has been re-checked by the prover's own
// concrete evaluators (evalRules vs Program.Eval) before being
// reported.
type Finding struct {
	Kind    string
	RuleID  int // -1 for table-level findings
	Related []int
	Message string
	// Cex is the witness assignment (nil for structural/overflow
	// findings). Want/Got are the diverging outcomes: the independent
	// AST semantics vs the compiled program.
	Cex         *Assignment
	Want, Got   subscription.ActionSet
	WantUpdates []string
	GotUpdates  []string
}

// Result is the outcome of a Check run.
type Result struct {
	Findings []Finding
	// Paths counts symbolically explored pipeline paths.
	Paths int
	// Overflowed reports that some budget was exhausted: a clean
	// finding list then means "no divergence found", not "proved".
	Overflowed bool
}

// Ok reports a complete, divergence-free proof.
func (r *Result) Ok() bool { return len(r.Findings) == 0 && !r.Overflowed }

// Check proves the compiled program equivalent to the rule set, per
// rule and modulo the §V-D forwarding merge:
//
//   - completeness: every packet satisfying rule R's filter (as this
//     switch must interpret it — stateful atoms erased unless last
//     hop) reaches a leaf whose action set subsumes R's action, and
//     every packet matching a stateful R's stateless context reaches
//     a leaf updating R's aggregates;
//   - soundness: no leaf fires a port, custom action or register
//     update that no matching rule justifies.
//
// Every divergence is witnessed by a concrete assignment verified
// against both of the prover's concrete evaluators before being
// reported.
func Check(p *Program, rules []*subscription.Rule, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	proved, err := processRules(rules, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	chk := &checker{p: p, rules: proved, opts: opts, res: res}

	chk.checkGroups()
	for _, part := range chk.parts() {
		part.checkMissing()
		part.checkSpurious()
	}

	sort.SliceStable(res.Findings, func(i, j int) bool {
		if res.Findings[i].RuleID != res.Findings[j].RuleID {
			return res.Findings[i].RuleID < res.Findings[j].RuleID
		}
		return res.Findings[i].Kind < res.Findings[j].Kind
	})
	return res, nil
}

type checker struct {
	p     *Program
	rules []*provedRule
	opts  Options
	res   *Result
}

func (c *checker) overflow(what string) {
	if !c.res.Overflowed {
		c.res.Findings = append(c.res.Findings, Finding{
			Kind: KindOverflow, RuleID: -1,
			Message: fmt.Sprintf("symbolic budget exhausted during %s; proof is partial", what),
		})
	}
	c.res.Overflowed = true
}

// confirm re-checks a candidate divergence concretely and, if real,
// records the finding. Returns whether the finding was confirmed.
func (c *checker) confirm(kind string, ruleID int, related []int, a *Assignment, msg string) bool {
	want, wantUpd := evalRules(c.rules, a)
	got, gotUpd := c.p.Eval(a)
	if want.Equal(got) && strings.Join(wantUpd, ",") == strings.Join(gotUpd, ",") {
		// The symbolic candidate does not reproduce concretely — a
		// prover-side approximation artifact, not a program bug. Never
		// report an unconfirmed counterexample.
		return false
	}
	c.res.Findings = append(c.res.Findings, Finding{
		Kind: kind, RuleID: ruleID, Related: related, Message: msg,
		Cex: a, Want: want, Got: got, WantUpdates: wantUpd, GotUpdates: gotUpd,
	})
	return true
}

// checkGroups validates the multicast allocation structurally: every
// multi-port leaf must reference a group realizing exactly its ports.
func (c *checker) checkGroups() {
	for _, l := range c.p.Leaves {
		if len(l.Actions.Ports) <= 1 {
			continue
		}
		ok := l.Group >= 0 && l.Group < len(c.p.Groups) &&
			slices.Equal(c.p.Groups[l.Group], l.Actions.Ports)
		if !ok {
			c.res.Findings = append(c.res.Findings, Finding{
				Kind: KindGroupMismatch, RuleID: -1,
				Message: fmt.Sprintf("leaf state %d forwards to ports %v but its multicast group (%d) does not realize them",
					l.In, l.Actions.Ports, l.Group),
			})
		}
	}
}

// checkMissing proves completeness rule by rule: restrict the initial
// context to one disjunct of the rule's filter, execute the program
// under it, and demand every reachable leaf subsume the rule's action
// (and carry its update keys, for last-hop stateful rules).
func (c *checker) checkMissing() {
	for _, r := range c.rules {
		flagged := map[string]bool{}
		for _, d := range r.disjuncts {
			if !flagged[KindMissingAction] {
				if cc := refineConjTrue(newCtx(), d.atoms); cc != nil {
					paths, ov := c.p.explore(cc, c.opts.MaxPaths)
					if ov {
						c.overflow(fmt.Sprintf("completeness check of rule %d", r.id))
					}
					c.res.Paths += len(paths)
					for _, pr := range paths {
						var acts subscription.ActionSet
						if pr.leaf != nil {
							acts = pr.leaf.Actions
						}
						if acts.Covers(r.action) {
							continue
						}
						if a, ok := pr.c.concretize(c.p.Spec); ok &&
							c.confirm(KindMissingAction, r.id, nil, a,
								fmt.Sprintf("a packet matching this filter reaches a leaf that does not perform %s", r.action)) {
							flagged[KindMissingAction] = true
							break
						}
					}
				}
			}
			if len(d.aggKeys) > 0 && !flagged[KindMissingUpdate] {
				if cc := refineConjTrue(newCtx(), d.stateless); cc != nil {
					paths, ov := c.p.explore(cc, c.opts.MaxPaths)
					if ov {
						c.overflow(fmt.Sprintf("update check of rule %d", r.id))
					}
					c.res.Paths += len(paths)
				scan:
					for _, pr := range paths {
						for _, k := range d.aggKeys {
							if pr.leaf != nil && slices.Contains(pr.leaf.Updates, k) {
								continue
							}
							if a, ok := pr.c.concretize(c.p.Spec); ok &&
								c.confirm(KindMissingUpdate, r.id, nil, a,
									fmt.Sprintf("a packet matching this rule's stateless context reaches a leaf that does not update %s", k)) {
								flagged[KindMissingUpdate] = true
								break scan
							}
						}
					}
				}
			}
		}
	}
}

// checkSpurious proves soundness leaf by leaf: execute the whole
// program unconstrained and, for every action a reached leaf fires,
// demand that the packets reaching it cannot all evade the rules
// justifying that action.
func (c *checker) checkSpurious() {
	paths, ov := c.p.explore(newCtx(), c.opts.MaxPaths)
	if ov {
		c.overflow("soundness sweep")
	}
	c.res.Paths += len(paths)

	type item struct {
		state int32
		what  string
	}
	done := map[item]bool{}
	for _, pr := range paths {
		if pr.leaf == nil {
			continue
		}
		l := pr.leaf
		for _, q := range l.Actions.Ports {
			key := item{l.In, fmt.Sprintf("port %d", q)}
			if done[key] {
				continue
			}
			contributors := c.portRules(q)
			if ruleIDs, a := c.unjustified(pr.c, contributors); a != nil {
				if c.confirm(KindSpuriousAction, -1, ruleIDs, a,
					fmt.Sprintf("leaf state %d forwards to port %d for a packet no rule routes there", l.In, q)) {
					done[key] = true
				}
			}
		}
		for _, act := range l.Actions.Custom {
			key := item{l.In, "custom " + act.Key()}
			if done[key] {
				continue
			}
			contributors := c.customRules(act)
			if ruleIDs, a := c.unjustified(pr.c, contributors); a != nil {
				if c.confirm(KindSpuriousAction, -1, ruleIDs, a,
					fmt.Sprintf("leaf state %d fires %s for a packet no rule justifies", l.In, act)) {
					done[key] = true
				}
			}
		}
		for _, k := range l.Updates {
			key := item{l.In, "update " + k}
			if done[key] {
				continue
			}
			if ruleIDs, a := c.unjustifiedUpdate(pr.c, k); a != nil {
				if c.confirm(KindSpuriousUpdate, -1, ruleIDs, a,
					fmt.Sprintf("leaf state %d updates %s for a packet no stateful rule's context justifies", l.In, k)) {
					done[key] = true
				}
			}
		}
	}
}

// portRules returns the rules that forward to port q.
func (c *checker) portRules(q int) []*provedRule {
	var out []*provedRule
	for _, r := range c.rules {
		if _, ok := slices.BinarySearch(r.action.Ports, q); ok && r.action.IsFwd() {
			out = append(out, r)
		}
	}
	return out
}

// customRules returns the rules carrying the custom action act.
func (c *checker) customRules(act subscription.Action) []*provedRule {
	var out []*provedRule
	for _, r := range c.rules {
		if !r.action.IsFwd() && r.action.Equal(act) {
			out = append(out, r)
		}
	}
	return out
}

// unjustified refines the path context by the negation of every
// contributor's filter; a surviving context witnesses a packet that
// reaches the leaf yet matches none of the rules justifying the
// action. Returns the contributor IDs and a concrete witness, or nil.
func (c *checker) unjustified(pc *pctx, contributors []*provedRule) ([]int, *Assignment) {
	ids := make([]int, 0, len(contributors))
	ctxs := []*pctx{pc}
	for _, r := range contributors {
		ids = append(ids, r.id)
		var next []*pctx
		for _, x := range ctxs {
			more, ok := refineFilterFalse(x, r, c.opts.MaxContexts)
			if !ok {
				c.overflow("negative refinement")
				return nil, nil
			}
			next = append(next, more...)
			if len(next) > c.opts.MaxContexts {
				c.overflow("negative refinement")
				return nil, nil
			}
		}
		ctxs = next
		if len(ctxs) == 0 {
			return nil, nil
		}
	}
	sort.Ints(ids)
	for _, x := range ctxs {
		if a, ok := x.concretize(c.p.Spec); ok {
			return ids, a
		}
	}
	return nil, nil
}

// unjustifiedUpdate is unjustified for register updates: the negated
// obligations are the stateless contexts of every last-hop stateful
// disjunct aggregating into key k.
func (c *checker) unjustifiedUpdate(pc *pctx, k string) ([]int, *Assignment) {
	idSet := map[int]bool{}
	ctxs := []*pctx{pc}
	for _, r := range c.rules {
		for _, d := range r.disjuncts {
			if !slices.Contains(d.aggKeys, k) {
				continue
			}
			idSet[r.id] = true
			var next []*pctx
			for _, x := range ctxs {
				next = append(next, refineConjFalse(x, d.stateless)...)
				if len(next) > c.opts.MaxContexts {
					c.overflow("negative refinement")
					return nil, nil
				}
			}
			ctxs = next
			if len(ctxs) == 0 {
				return nil, nil
			}
		}
	}
	ids := make([]int, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, x := range ctxs {
		if a, ok := x.concretize(c.p.Spec); ok {
			return ids, a
		}
	}
	return nil, nil
}

// Report converts the result to the shared diagnostic envelope.
// ruleLine maps rule IDs to 1-based source lines (may be nil).
func (r *Result) Report(file string, rules []*subscription.Rule, ruleLine map[int]int) *report.Report {
	byID := make(map[int]*subscription.Rule, len(rules))
	for _, ru := range rules {
		byID[ru.ID] = ru
	}
	rep := &report.Report{Tool: "camusc-prove", File: file, Rules: len(rules)}
	for _, f := range r.Findings {
		rf := report.Finding{
			Tool: "camusc-prove", File: file, RuleID: f.RuleID,
			Kind: report.Kind(f.Kind), Severity: report.SevError,
			Message: f.Message, Related: f.Related,
		}
		if f.Kind == KindOverflow {
			rf.Severity = report.SevWarning
		}
		if ru := byID[f.RuleID]; ru != nil {
			rf.RuleText = ru.String()
			rf.Line = ruleLine[f.RuleID]
		}
		if f.Cex != nil {
			rf.Counterexample = f.ReportCex()
		}
		rep.Findings = append(rep.Findings, rf)
	}
	return rep
}

// ReportCex renders the finding's counterexample into the envelope
// form (without the wire bytes; callers that replay the witness fill
// Packet and Confirmed).
func (f *Finding) ReportCex() *report.Counterexample {
	if f.Cex == nil {
		return nil
	}
	cex := &report.Counterexample{
		Want: describeOutcome(f.Want, f.WantUpdates),
		Got:  describeOutcome(f.Got, f.GotUpdates),
	}
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
	return cex
}

func describeOutcome(set subscription.ActionSet, updates []string) string {
	s := set.Key()
	if len(updates) > 0 {
		s += " updates" + fmt.Sprint(updates)
	}
	return s
}

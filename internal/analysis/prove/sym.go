package prove

import (
	"sort"
	"strings"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// This file is the exported symbolic façade over the prover's cube
// machinery, built for network-wide analysis
// (internal/analysis/netcheck): a Class is a satisfiable packet cube
// that can be pushed through a switch program (Explore), refined by a
// subscription filter (Matcher), intersected, subtracted, and finally
// concretized into a witness packet. Classes additionally carry
// *frozen* register constraints: aggregate registers are private to
// one switch, so when a class crosses a link the current switch's
// register constraints are moved into a namespace-qualified frozen map
// ("s3|my_counter(price)" → domain) where later switches cannot touch
// them but satisfiability still accounts for them — a program that
// forwards only under some register state stays distinguishable from
// one that forwards unconditionally.

// Class is a satisfiable symbolic packet class. The zero value is
// invalid; start from NewClass (the unconstrained class covering every
// packet) and derive via the refinement methods, all of which return
// nil for the empty class. Invariant: a non-nil Class is satisfiable —
// per-field consistency is global consistency (see pctx) and the
// frozen domains are checked non-empty at every step.
type Class struct {
	c      *pctx
	frozen map[string]IntDomain
}

// NewClass returns the unconstrained class: every packet, any register
// state on every switch.
func NewClass() *Class { return &Class{c: newCtx()} }

func cloneFrozen(m map[string]IntDomain) map[string]IntDomain {
	n := make(map[string]IntDomain, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

// Freeze moves the class's current-switch register constraints into
// the frozen map under namespace ns (conventionally "s<switchID>"),
// leaving the working register space unconstrained for the next
// switch. Revisiting a namespace intersects with the previously frozen
// domains (same physical registers); nil on contradiction.
func (cl *Class) Freeze(ns string) *Class {
	n := &Class{c: cl.c, frozen: cloneFrozen(cl.frozen)}
	if len(cl.c.aggs) == 0 {
		return n
	}
	nc := cl.c.clone()
	for k, d := range nc.aggs {
		qk := ns + "|" + k
		if prev, ok := n.frozen[qk]; ok {
			d = d.Intersect(prev)
		}
		if d.IsEmpty() {
			return nil
		}
		n.frozen[qk] = d
	}
	nc.aggs = map[string]IntDomain{}
	n.c = nc
	return n
}

// Key renders the class canonically — equal keys mean equal classes.
// Used for cycle detection on the class×switch graph.
func (cl *Class) Key() string {
	var b strings.Builder
	writeSorted := func(prefix string, keys []string, val func(string) string) {
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(prefix)
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(val(k))
			b.WriteByte(';')
		}
	}
	hk := make([]string, 0, len(cl.c.headers))
	for k := range cl.c.headers {
		hk = append(hk, k)
	}
	writeSorted("h:", hk, func(k string) string {
		if cl.c.headers[k] == triYes {
			return "1"
		}
		return "0"
	})
	ik := make([]string, 0, len(cl.c.ints))
	for k := range cl.c.ints {
		ik = append(ik, k)
	}
	writeSorted("i:", ik, func(k string) string { return cl.c.ints[k].String() })
	sk := make([]string, 0, len(cl.c.strs))
	for k := range cl.c.strs {
		sk = append(sk, k)
	}
	writeSorted("s:", sk, func(k string) string { return cl.c.strs[k].String() })
	ak := make([]string, 0, len(cl.c.aggs))
	for k := range cl.c.aggs {
		ak = append(ak, k)
	}
	writeSorted("a:", ak, func(k string) string { return cl.c.aggs[k].String() })
	fk := make([]string, 0, len(cl.frozen))
	for k := range cl.frozen {
		fk = append(fk, k)
	}
	writeSorted("f:", fk, func(k string) string { return cl.frozen[k].String() })
	return b.String()
}

// Concretize extracts a witness packet. Register witnesses prefer zero
// (a fresh switch's registers), so counterexamples replay on a cold
// dataplane whenever the class admits it; non-zero register witnesses
// land in Assignment.State under ns-qualified keys ("<ns>|<aggkey>")
// for the current switch and the frozen keys verbatim, marking the
// counterexample stateful (not wire-replayable).
func (cl *Class) Concretize(sp *spec.Spec, ns string) (*Assignment, bool) {
	c := cl.c
	if len(c.aggs) > 0 {
		c = c.clone()
		for k, d := range c.aggs {
			if d.Contains(0) {
				c.aggs[k] = IntPoint(0)
			}
		}
	}
	a, ok := c.concretize(sp)
	if !ok {
		return nil, false
	}
	if ns != "" && len(a.State) > 0 {
		q := make(map[string]int64, len(a.State))
		for k, v := range a.State {
			q[ns+"|"+k] = v
		}
		a.State = q
	}
	for k, d := range cl.frozen {
		if d.Contains(0) {
			continue
		}
		w, ok := d.Witness()
		if !ok {
			return nil, false
		}
		a.State[k] = w
	}
	return a, true
}

// Intersect returns the conjunction of two classes, nil when empty.
// Current-switch register constraints of both operands are assumed to
// refer to the same switch.
func (cl *Class) Intersect(o *Class, sp *spec.Spec) *Class {
	c := cl.c.clone()
	for h, t := range o.c.headers {
		if cur, ok := c.headers[h]; ok {
			if cur != t {
				return nil
			}
			continue
		}
		c.headers[h] = t
	}
	for q, d := range o.c.ints {
		f, ok := sp.Field(q)
		if !ok {
			return nil
		}
		x := c.intDom(f).Intersect(d)
		if x.IsEmpty() {
			return nil
		}
		c.ints[q] = x
	}
	for q, d := range o.c.strs {
		f, ok := sp.Field(q)
		if !ok {
			return nil
		}
		x := c.strDom(f).Intersect(d)
		if x.EmptyFor(f.Bytes()) {
			return nil
		}
		c.strs[q] = x
	}
	for k, d := range o.c.aggs {
		x := c.aggDom(k).Intersect(d)
		if x.IsEmpty() {
			return nil
		}
		c.aggs[k] = x
	}
	frozen := cloneFrozen(cl.frozen)
	for k, d := range o.frozen {
		if prev, ok := frozen[k]; ok {
			d = d.Intersect(prev)
		}
		if d.IsEmpty() {
			return nil
		}
		frozen[k] = d
	}
	return &Class{c: c, frozen: frozen}
}

func (cl *Class) frozenDom(k string) IntDomain {
	if d, ok := cl.frozen[k]; ok {
		return d
	}
	return fullInt
}

// Minus returns disjoint classes covering cl ∧ ¬o (the standard cube
// subtraction: walk o's constraint components in canonical order; at
// each step emit "prefix holds, this component fails"). The result is
// empty exactly when o covers cl.
func (cl *Class) Minus(o *Class, sp *spec.Spec) []*Class {
	var out []*Class
	cur := cl
	emit := func(c *pctx, frozen map[string]IntDomain) {
		if c != nil {
			if frozen == nil {
				frozen = cur.frozen
			}
			out = append(out, &Class{c: c, frozen: frozen})
		}
	}
	// Header presence components first: field-domain components below
	// assume their header's presence component has already been applied
	// (pctx invariant: a constrained field's header is present).
	hk := make([]string, 0, len(o.c.headers))
	for k := range o.c.headers {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	for _, h := range hk {
		want := o.c.headers[h] == triYes
		emit(cur.c.withPresence(h, !want), nil)
		n := cur.c.withPresence(h, want)
		if n == nil {
			return out
		}
		cur = &Class{c: n, frozen: cur.frozen}
	}
	ik := make([]string, 0, len(o.c.ints))
	for k := range o.c.ints {
		ik = append(ik, k)
	}
	sort.Strings(ik)
	for _, q := range ik {
		f, ok := sp.Field(q)
		if !ok {
			return out
		}
		d := o.c.ints[q]
		emit(cur.c.withIntDom(f, cur.c.intDom(f).Subtract(d)), nil)
		n := cur.c.withIntDom(f, cur.c.intDom(f).Intersect(d))
		if n == nil {
			return out
		}
		cur = &Class{c: n, frozen: cur.frozen}
	}
	sk := make([]string, 0, len(o.c.strs))
	for k := range o.c.strs {
		sk = append(sk, k)
	}
	sort.Strings(sk)
	for _, q := range sk {
		f, ok := sp.Field(q)
		if !ok {
			return out
		}
		d := o.c.strs[q]
		emit(cur.c.withStrDom(f, cur.c.strDom(f).Subtract(d)), nil)
		n := cur.c.withStrDom(f, cur.c.strDom(f).Intersect(d))
		if n == nil {
			return out
		}
		cur = &Class{c: n, frozen: cur.frozen}
	}
	ak := make([]string, 0, len(o.c.aggs))
	for k := range o.c.aggs {
		ak = append(ak, k)
	}
	sort.Strings(ak)
	for _, k := range ak {
		d := o.c.aggs[k]
		emit(cur.c.withAggDom(k, cur.c.aggDom(k).Subtract(d)), nil)
		n := cur.c.withAggDom(k, cur.c.aggDom(k).Intersect(d))
		if n == nil {
			return out
		}
		cur = &Class{c: n, frozen: cur.frozen}
	}
	fk := make([]string, 0, len(o.frozen))
	for k := range o.frozen {
		fk = append(fk, k)
	}
	sort.Strings(fk)
	for _, k := range fk {
		d := o.frozen[k]
		if neg := cur.frozenDom(k).Subtract(d); !neg.IsEmpty() {
			nf := cloneFrozen(cur.frozen)
			nf[k] = neg
			emit(cur.c, nf)
		}
		pos := cur.frozenDom(k).Intersect(d)
		if pos.IsEmpty() {
			return out
		}
		nf := cloneFrozen(cur.frozen)
		nf[k] = pos
		cur = &Class{c: cur.c, frozen: nf}
	}
	return out
}

// SymPath is one terminal symbolic path through a program: the refined
// class and the merged action set (empty = drop) of the leaf reached, or
// of the leaves the parts' walks reached, united.
type SymPath struct {
	Class   *Class
	Actions subscription.ActionSet
	Updates []string
}

// Explore symbolically executes the program from cl, returning one
// SymPath per execution path and whether the budget (0 = the Check
// default) was exhausted, in which case the list is partial. The
// class's working register space is interpreted as this program's
// switch; callers propagating across switches must Freeze between
// hops.
func (p *Program) Explore(cl *Class, budget int) ([]SymPath, bool) {
	if budget <= 0 {
		budget = Options{}.withDefaults().MaxPaths
	}
	paths, overflow := p.exploreAll(cl.c, budget)
	out := make([]SymPath, 0, len(paths))
	for _, pr := range paths {
		sp := SymPath{Class: &Class{c: pr.c, frozen: cl.frozen}}
		if pr.leaf != nil {
			sp.Actions = pr.leaf.Actions
			sp.Updates = pr.leaf.Updates
		}
		out = append(out, sp)
	}
	return out, overflow
}

// Matcher is a subscription filter in the prover's processed form,
// ready for symbolic refinement. lastHop selects §II semantics: true
// keeps aggregate atoms active (with their §VI validity conjuncts),
// false erases them (upstream switches forward the stateless
// superset).
type Matcher struct {
	r *provedRule
}

// NewMatcher processes one filter expression.
func NewMatcher(e subscription.Expr, lastHop bool) (*Matcher, error) {
	prs, err := processRules(
		[]*subscription.Rule{{ID: 0, Filter: e, Action: subscription.FwdAction(0)}},
		Options{LastHop: lastHop})
	if err != nil {
		return nil, err
	}
	return &Matcher{r: prs[0]}, nil
}

// Stateful reports whether any disjunct reads aggregate state (always
// false for matchers built with lastHop=false).
func (m *Matcher) Stateful() bool {
	for _, d := range m.r.disjuncts {
		if len(d.aggKeys) > 0 {
			return true
		}
	}
	return false
}

// RefineTrue returns the satisfiable refinements of cl by each
// disjunct of the filter — their union is cl ∧ filter.
func (m *Matcher) RefineTrue(cl *Class) []*Class {
	var out []*Class
	for _, d := range m.r.disjuncts {
		if c := refineConjTrue(cl.c, d.atoms); c != nil {
			out = append(out, &Class{c: c, frozen: cl.frozen})
		}
	}
	return out
}

// RefineFalse returns classes covering cl ∧ ¬filter, or ok=false when
// the context fan-out exceeds budget (0 = the Check default) — the
// query is then inconclusive.
func (m *Matcher) RefineFalse(cl *Class, budget int) ([]*Class, bool) {
	if budget <= 0 {
		budget = Options{}.withDefaults().MaxContexts
	}
	ctxs, ok := refineFilterFalse(cl.c, m.r, budget)
	if !ok {
		return nil, false
	}
	out := make([]*Class, 0, len(ctxs))
	for _, c := range ctxs {
		out = append(out, &Class{c: c, frozen: cl.frozen})
	}
	return out, true
}

// Matches evaluates the filter concretely on an assignment (frozen
// register keys in Assignment.State are ignored — they belong to other
// switches).
func (m *Matcher) Matches(a *Assignment) bool {
	for _, d := range m.r.disjuncts {
		if d.atoms.eval(a) {
			return true
		}
	}
	return false
}

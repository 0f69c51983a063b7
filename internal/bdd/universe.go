package bdd

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Pred is one BDD variable: a canonical atomic predicate. Relations are
// canonicalized to {EQ, LT, GT, PREFIX}; the complementary relations
// (NE, GE, LE) are expressed as the negated branch of the canonical
// predicate, which maximizes node sharing across rules.
type Pred struct {
	// ID is the global identity of the predicate (creation order). It is
	// NOT the variable order — see Less.
	ID int
	// FieldIdx indexes the universe's field list; all predicates of a
	// field are contiguous in the variable order, which is what lets the
	// compiler slice the BDD into per-field components (§V-D).
	FieldIdx int
	// Seq is the predicate's position within its field group. The
	// variable order (§V-C) is lexicographic (FieldIdx, Seq), which
	// stays stable when an incremental engine appends new predicates.
	Seq int
	// Ref is the field (or aggregate) the predicate tests.
	Ref subscription.FieldRef
	// Rel is the canonical relation.
	Rel subscription.Relation
	// Const is the comparison constant.
	Const spec.Value
}

// Less reports whether p precedes q in the fixed BDD variable order.
func (p *Pred) Less(q *Pred) bool {
	if p.FieldIdx != q.FieldIdx {
		return p.FieldIdx < q.FieldIdx
	}
	return p.Seq < q.Seq
}

func (p *Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.Ref, p.Rel, p.Const)
}

// Eval evaluates the predicate against a message + state.
func (p *Pred) Eval(m *spec.Message, st subscription.StateReader) bool {
	a := subscription.Atom{Ref: p.Ref, Rel: p.Rel, Const: p.Const}
	return subscription.EvalAtom(&a, m, st)
}

// FieldVar is one field (or stateful aggregate) participating in the BDD
// variable order.
type FieldVar struct {
	Index int
	Ref   subscription.FieldRef
	// Preds are the canonical predicates on this field, in variable order.
	Preds []*Pred
}

// Key returns the field's canonical identity.
func (f *FieldVar) Key() string { return f.Ref.Key() }

// Type returns the field's value type.
func (f *FieldVar) Type() spec.FieldType { return f.Ref.Type() }

// FieldOrder selects the BDD variable order across fields. The paper
// (§V-C) notes optimal ordering is NP-hard and that simple heuristics
// work well; fieldLess states the one this repository uses.
type FieldOrder int

const (
	// CanonicalOrder tests header-validity bits, then @field_exact packet
	// fields, then the remaining packet fields — each group in spec
	// declaration order — then aggregates. The default (see fieldLess).
	CanonicalOrder FieldOrder = iota
	// SpecOrder orders packet fields by pure spec declaration order, exact
	// or not (validity bits before, aggregates after): the paper
	// prototype's order, kept as the ablation CanonicalOrder is measured
	// against.
	SpecOrder
	// ReverseSpecOrder reverses SpecOrder's validity bits and packet
	// fields; aggregates still come last (worst-case ablation).
	ReverseSpecOrder
)

// fieldLess is the single statement of the field order. Validity bits
// come first (the parser sets them, so they are testable before any
// field), aggregates last; between them, under exactFirst, every
// @field_exact packet field precedes every other packet field; inside a
// group, spec declaration order. An equality on distinct constants
// partitions the rule set, so the stages after an exact field see one
// partition's thresholds instead of the cross product of all of them (on
// ITCH, `price` before `stock` gives every price state its own symbol
// table). The order reads only the spec, never the rules, which is what
// lets NewUniverse seed it before the first rule arrives.
func fieldLess(sp *spec.Spec, a, b subscription.FieldRef, exactFirst bool) bool {
	rank := func(r subscription.FieldRef) (group, idx int) {
		switch r.Kind {
		case subscription.ValidityRef:
			return 0, sp.HeaderIndex(r.Header)
		case subscription.PacketRef:
			group = 2
			if exactFirst && r.Field.Hint == spec.MatchExact {
				group = 1
			}
			if i, ok := sp.SubscribableIndex(r.Field); ok {
				return group, i
			}
			return group, len(sp.SubscribableFields())
		default:
			return 3, 0
		}
	}
	ga, ia := rank(a)
	gb, ib := rank(b)
	if ga != gb {
		return ga < gb
	}
	if ia != ib {
		return ia < ib
	}
	return a.Key() < b.Key()
}

// fieldIdent is the comparable identity of a field variable — the struct
// equivalent of FieldRef.Key(), so the hot lookup paths never format
// strings. Packet fields identify by their interned *spec.Field,
// validity bits by header name; aggregates (rare) fall back to the
// canonical key string so key-equal refs stay merged.
type fieldIdent struct {
	kind   subscription.RefKind
	field  *spec.Field
	header string
	agg    string
}

func identOf(r subscription.FieldRef) fieldIdent {
	switch r.Kind {
	case subscription.PacketRef:
		return fieldIdent{kind: r.Kind, field: r.Field}
	case subscription.ValidityRef:
		return fieldIdent{kind: r.Kind, header: r.Header}
	default:
		return fieldIdent{kind: r.Kind, agg: r.Key()}
	}
}

// predIdent is the comparable identity of a canonical predicate.
type predIdent struct {
	f   fieldIdent
	rel subscription.Relation
	c   spec.Value
}

// Universe is the set of BDD variables: the fields in a fixed order and
// the canonical predicates on each. A Universe belongs to one goroutine at
// a time — its builder's, then the emitter's: the context cache fills on
// reads (DESIGN §11).
type Universe struct {
	Spec   *spec.Spec
	Fields []*FieldVar
	Preds  []*Pred // by ID

	order      FieldOrder
	fieldByKey map[fieldIdent]*FieldVar
	predByKey  map[predIdent]*Pred

	// cache holds the interned per-field constraint contexts and the
	// memoized implication/refinement results. It is persistent for the
	// universe's lifetime: the chains and the merge of one build, the
	// emitter after it, and the incremental engine's successive rebuilds
	// all hit the same entries.
	// Entries are never invalidated — predicates are append-only and
	// constraints immutable, so a cached result stays correct when the
	// universe grows (Extend renumbers Seq, never a Pred's ID).
	cache ctxCache
}

// ctxCache interns (field, constraint) contexts to dense int32 IDs and
// memoizes the two operations the builder performs on them, in the
// kernel's one table type (table.go): a merge refines a context twice per
// expansion, which makes refined as hot as the or-memo.
type ctxCache struct {
	ctxs []match.Constraint
	// byKey finds a context by (field, constraint hash): the most recent
	// one, with chain linking each context to the previous one of the same
	// key (-1 ends the chain). Equality decides among them, so interning
	// formats nothing.
	byKey   table
	chain   []int32
	fresh   table // (field, 0, 0) → the field's unconstrained context
	refined table // (context, predicate, outcome) → context
	implied table // (context, predicate, 0) → match.Tri
}

// intern returns the ID of a canonical (field, constraint) pair, adding
// it if new.
func (cc *ctxCache) intern(field int32, c match.Constraint) int32 {
	hash := c.Hash()
	head, ok := cc.byKey.get(field, int32(hash), int32(hash>>32))
	if !ok {
		head = -1
	}
	for id := head; id >= 0; id = cc.chain[id] {
		if cc.ctxs[id].Equal(c) {
			return id
		}
	}
	id := int32(len(cc.ctxs))
	cc.ctxs = append(cc.ctxs, c)
	cc.chain = append(cc.chain, head)
	cc.byKey.put(field, int32(hash), int32(hash>>32), id)
	return id
}

// bytes returns the memory the cache's slices and tables hold, the
// constraints themselves excluded.
func (cc *ctxCache) bytes() int {
	return cap(cc.ctxs)*int(unsafe.Sizeof(match.Constraint(nil))) +
		cap(cc.chain)*4 +
		cc.byKey.bytes() + cc.fresh.bytes() + cc.refined.bytes() + cc.implied.bytes()
}

// FreshCtx returns the unconstrained context for a predicate's field
// together with its constraint, so callers hold the constraint locally
// and test implications with direct calls. With RefineCtx it is also how
// the compiler derives an entry's match constraint along a path: the
// steps are the ones the merge just memoized, and the entries share the
// interned constraints.
func (u *Universe) FreshCtx(p *Pred) (int32, match.Constraint) {
	cc := &u.cache
	field := int32(p.FieldIdx)
	id, ok := cc.fresh.get(field, 0, 0)
	if !ok {
		id = cc.intern(field, match.New(p.Ref.Type()))
		cc.fresh.put(field, 0, 0, id)
	}
	return id, cc.ctxs[id]
}

// RefineCtx returns the context refined by a predicate outcome plus its
// constraint, memoized on (ctx, pred, outcome). The memo persists for
// the universe's lifetime, so an incremental engine's rebuilds never
// recompute — or re-allocate — a refinement they have seen before.
//
// The two refinements an equality-heavy field makes most often never
// reach the interning step. A true EQ pins the value whatever the parent
// held, so it is memoized per predicate, not per (parent, predicate); and
// a refinement that changes nothing — With returns its receiver: an
// exclusion dropped because the list is at its cap — is the parent context
// itself.
func (u *Universe) RefineCtx(ctx int32, p *Pred, outcome bool) (int32, match.Constraint) {
	cc := &u.cache
	from, out := ctx, int32(0)
	if outcome {
		out = 1
		if p.Rel == subscription.EQ {
			from = noCtx
		}
	}
	if id, ok := cc.refined.get(from, int32(p.ID), out); ok {
		return id, cc.ctxs[id]
	}
	parent := cc.ctxs[ctx]
	c := parent.With(p.Rel, p.Const, outcome)
	id := ctx
	if c != parent {
		id = cc.intern(int32(p.FieldIdx), c)
	}
	cc.refined.put(from, int32(p.ID), out, id)
	return id, cc.ctxs[id]
}

// impliesCtx reports whether a context decides a predicate, memoized on
// (ctx, pred): the chain builder's per-literal redundancy test.
func (u *Universe) impliesCtx(ctx int32, p *Pred) match.Tri {
	cc := &u.cache
	if v, ok := cc.implied.get(ctx, int32(p.ID), 0); ok {
		return match.Tri(v)
	}
	v := cc.ctxs[ctx].Implies(p.Rel, p.Const)
	cc.implied.put(ctx, int32(p.ID), 0, int32(v))
	return v
}

// CtxCacheSize reports the number of interned contexts and memoized
// implication results (diagnostics and tests).
func (u *Universe) CtxCacheSize() (ctxs, implied int) {
	return len(u.cache.ctxs), u.cache.implied.len()
}

// canonicalize maps an atom to its canonical predicate form plus the
// polarity with which the atom uses it (false = the atom is the negation
// of the canonical predicate).
func canonicalize(a *subscription.Atom) (rel subscription.Relation, c spec.Value, positive bool) {
	switch a.Rel {
	case subscription.EQ, subscription.LT, subscription.GT, subscription.PREFIX:
		return a.Rel, a.Const, true
	case subscription.NE:
		return subscription.EQ, a.Const, false
	case subscription.GE: // v >= c  ≡  ¬(v < c)
		return subscription.LT, a.Const, false
	case subscription.LE: // v <= c  ≡  ¬(v > c)
		return subscription.GT, a.Const, false
	default:
		panic("bdd: unknown relation " + a.Rel.String())
	}
}

// NewUniverse returns a universe without predicates whose fields are every
// header validity bit and subscribable packet field of the spec, in the
// given order: fieldLess, exact fields first under CanonicalOrder, the
// list reversed under ReverseSpecOrder. The order reads the spec alone,
// so no sequence of rules can move it; only aggregates, whose key space
// is unbounded, join later (Extend).
func NewUniverse(sp *spec.Spec, order FieldOrder) *Universe {
	u := &Universe{
		Spec:       sp,
		order:      order,
		fieldByKey: make(map[fieldIdent]*FieldVar),
		predByKey:  make(map[predIdent]*Pred),
	}
	refs := make([]subscription.FieldRef, 0, len(sp.Headers)+len(sp.SubscribableFields()))
	for _, h := range sp.Headers {
		refs = append(refs, subscription.ValidRef(h.Name))
	}
	for _, f := range sp.SubscribableFields() {
		refs = append(refs, subscription.FieldRef{Kind: subscription.PacketRef, Field: f})
	}
	sort.SliceStable(refs, func(i, j int) bool { return u.less(refs[i], refs[j]) })
	if order == ReverseSpecOrder {
		slices.Reverse(refs)
	}
	for _, ref := range refs {
		u.field(ref)
	}
	return u
}

// less is fieldLess in the universe's order.
func (u *Universe) less(a, b subscription.FieldRef) bool {
	return fieldLess(u.Spec, a, b, u.order == CanonicalOrder)
}

// field returns the field variable of ref, appending it after every
// existing field if it is new.
func (u *Universe) field(ref subscription.FieldRef) *FieldVar {
	fid := identOf(ref)
	f, ok := u.fieldByKey[fid]
	if !ok {
		f = &FieldVar{Index: len(u.Fields), Ref: ref}
		u.fieldByKey[fid] = f
		u.Fields = append(u.Fields, f)
	}
	return f
}

// predOrderLess is the canonical within-field predicate order: by
// relation, then constant. Extend keeps every field's predicates in it,
// so a field's order does not depend on which rule brought which
// predicate.
func predOrderLess(ar subscription.Relation, ac spec.Value, br subscription.Relation, bc spec.Value) bool {
	if ar != br {
		return ar < br
	}
	if ac.Kind == spec.StringField {
		return ac.Str < bc.Str
	}
	return ac.Int < bc.Int
}

// Extend adds the fields and predicates of rules that the universe does
// not hold yet. New fields append after every existing field, in
// fieldLess order among themselves — in practice aggregates, since the
// spec's fields are seeded — so the fields one call introduces are
// ordered alike whichever rule lists them first. New predicates insert at
// their field's canonical (relation, constant) position and later
// predicates of the field renumber in place. Neither step swaps two
// existing variables, so every previously built node remains a
// well-ordered BDD and the builder's memo tables (all keyed by
// node/predicate identity) stay valid — the basis of incremental
// compilation (§V: "BDDs can leverage memoization").
func (u *Universe) Extend(rules []subscription.NormalizedRule) {
	n := len(u.Fields)
	var fresh []Pred
	for i := range rules {
		for _, a := range rules[i].Conj {
			rel, c, _ := canonicalize(a)
			key := predIdent{f: identOf(a.Ref), rel: rel, c: c}
			if _, ok := u.predByKey[key]; !ok {
				u.predByKey[key] = nil // claimed; set once numbered
				u.field(a.Ref)
				fresh = append(fresh, Pred{Ref: a.Ref, Rel: rel, Const: c})
			}
		}
	}
	// No node or context refers to the fields this call added yet, so
	// they can still be reordered among themselves.
	if added := u.Fields[n:]; len(added) > 1 {
		sort.SliceStable(added, func(i, j int) bool { return u.less(added[i].Ref, added[j].Ref) })
		for i, f := range added {
			f.Index = n + i
		}
	}
	// The new predicates are numbered and laid out in variable order, in
	// one allocation: the merge reads the predicate of every node it
	// visits, and neighbours in the order are then neighbours in memory.
	for i := range fresh {
		fresh[i].FieldIdx = u.field(fresh[i].Ref).Index
	}
	slices.SortFunc(fresh, func(a, b Pred) int {
		switch {
		case a.FieldIdx != b.FieldIdx:
			return a.FieldIdx - b.FieldIdx
		case predOrderLess(a.Rel, a.Const, b.Rel, b.Const):
			return -1
		case predOrderLess(b.Rel, b.Const, a.Rel, a.Const):
			return 1
		}
		return 0
	})
	for i := range fresh {
		u.insert(&fresh[i])
	}
}

// insert numbers a new predicate and places it at its field's canonical
// position; the field's later predicates shift their Seq by one, in place
// (relative order preserved).
func (u *Universe) insert(p *Pred) {
	p.ID = len(u.Preds)
	u.Preds = append(u.Preds, p)
	u.predByKey[predIdent{f: identOf(p.Ref), rel: p.Rel, c: p.Const}] = p
	f := u.Fields[p.FieldIdx]
	pos := sort.Search(len(f.Preds), func(i int) bool {
		return predOrderLess(p.Rel, p.Const, f.Preds[i].Rel, f.Preds[i].Const)
	})
	f.Preds = slices.Insert(f.Preds, pos, p)
	for i := pos; i < len(f.Preds); i++ {
		f.Preds[i].Seq = i
	}
}

// Lookup resolves an atom to its canonical predicate and polarity.
func (u *Universe) Lookup(a *subscription.Atom) (*Pred, bool, error) {
	rel, c, positive := canonicalize(a)
	p, ok := u.predByKey[predIdent{f: identOf(a.Ref), rel: rel, c: c}]
	if !ok {
		return nil, false, fmt.Errorf("bdd: predicate %q not in universe", a.Key())
	}
	return p, positive, nil
}

// AggregateFields returns the stateful (aggregate) field variables.
func (u *Universe) AggregateFields() []*FieldVar {
	var out []*FieldVar
	for _, f := range u.Fields {
		if f.Ref.Kind == subscription.AggregateRef {
			out = append(out, f)
		}
	}
	return out
}

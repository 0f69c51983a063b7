package compiler

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// walk is the flat form of a Program that the packet path reads
// (DESIGN.md §18). Stages/Entries/Defaults/Leaf stay the control-plane
// view; Reindex derives this from them and nothing else writes it.
//
// Every (stage, in-state) pair with at least one entry is one block,
// except a validity test whose outcome the header's field tests already
// decide for a message without the header: Reindex skips it. A
// block of an integer stage is a step function over the field domain,
// stored either as a sorted run of interval lower bounds with a parallel
// run of successors or, when its bounds span few values, as one successor
// per value; a block of a string stage is one open-addressed table of its
// exact keys. All blocks' runs lie back to back in program-wide slices, so
// a lookup touches one block header and one successor, a logarithmic
// number of bounds, or a slot and its key per stage it enters, with no
// map, interface or *Entry in between.
//
// A successor is pre-resolved to where the walk really goes next: s >= 0
// is the index of the next block the out-state enters (stages it passes
// through cost nothing), s < 0 is leaf slot ^s. A program of several parts
// has one start per part, each pre-resolved the same way; the parts share
// every block and leaf slot they both reach.
type walk struct {
	stages []walkStage // indexed like Program.Stages
	blocks []block
	bounds []int64 // interval lower bounds; each run starts at MinInt64
	next   []int32 // successor of the interval starting at bounds[i]
	direct []int32 // direct blocks' successors, one per value
	slots  []strSlot
	keys   []byte // the exact-string keys the slots point into
	tails  []strTail
	// leaves[0] is nil (a terminal without a leaf row: drop);
	// leaves[i+1] is Program.Leaf[i], the same pointer. egress holds the
	// same slots' port masks.
	leaves []*LeafEntry
	egress Egress
	starts []int32
}

// layout is how a block stores its entries. A string stage's blocks are
// stringLayout; an integer stage's are directLayout when that costs no
// more bytes than searchLayout (see pickLayout), else searchLayout.
type layout uint8

const (
	searchLayout layout = iota
	directLayout
	stringLayout
)

// block is one in-state of one stage: 36 bytes, no pointer.
type block struct {
	stage  uint16
	layout layout
	// miss is the successor when the field is absent or matches no entry:
	// the state's Defaults row, else the state itself carried on.
	miss int32
	// off and n locate the block's run:
	//   - searchLayout: bounds[off:off+n] and next[off:off+n], n >= 2;
	//   - directLayout: direct[off:off+n], n >= 1;
	//   - stringLayout: slots[off:off+n], n a power of two or 0.
	off, n int32
	// A direct block's slot 0 is the successor of every value below base,
	// slot i that of base+i-1, and the last slot also that of every value
	// above. base is split in halves: an int64 would pad the header to 40
	// bytes.
	baseLo uint32
	baseHi int32
	// A string block's value that is none of its exact keys tries
	// tails[tailOff:tailOff+tailN] in order, then takes rest.
	tailOff, tailN int32
	rest           int32
}

func (b *block) base() int64 { return int64(b.baseHi)<<32 | int64(b.baseLo) }

// strSlot is one slot of a block's exact-string table; hash 0 marks it
// empty. The key is keys[off:off+n]: a block's keys lie together, and
// the slots hold no pointer for the collector to follow.
type strSlot struct {
	hash   uint32
	next   int32
	off, n uint32
}

// strTail is a string entry that has to be evaluated: a prefix match or
// a residual whose exclusions are not all exact keys of its block.
type strTail struct {
	c    *match.StrConstraint
	next int32
}

// walkStage is what a stage reads from a message.
type walkStage struct {
	kind subscription.RefKind
	// idx is the subscribable index of a packet-field stage (-1 when the
	// program's spec lacks the field) or the header index of a validity
	// stage, both in the program's own spec; field and header resolve
	// them again for a message of another spec.
	idx    int
	field  *spec.Field
	header string
	aggKey string
}

func newWalkStage(sp *spec.Spec, t *Table) walkStage {
	ref := t.Field.Ref
	s := walkStage{kind: ref.Kind, idx: -1}
	switch ref.Kind {
	case subscription.PacketRef:
		s.field = ref.Field
		if idx, ok := sp.SubscribableIndex(ref.Field); ok {
			s.idx = idx
		}
	case subscription.ValidityRef:
		s.header = ref.Header
		s.idx = sp.HeaderIndex(ref.Header)
	case subscription.AggregateRef:
		s.aggKey = ref.Key()
	}
	return s
}

// input returns the value the stage matches on for m: a packet field, a
// header validity bit, or an aggregate register read through st. foreign
// marks a message of another spec sharing the field (a merged spec's
// component), which resolves against its own layout.
func (s *walkStage) input(m *spec.Message, st subscription.StateReader, foreign bool) (spec.Value, bool) {
	switch s.kind {
	case subscription.PacketRef:
		idx := s.idx
		if foreign {
			var ok bool
			if idx, ok = m.Spec().SubscribableIndex(s.field); !ok {
				return spec.Value{}, false
			}
		}
		return m.Get(idx)
	case subscription.ValidityRef:
		idx := s.idx
		if foreign {
			idx = m.Spec().HeaderIndex(s.header)
		}
		var bit int64
		if m.HeaderValid(idx) {
			bit = 1
		}
		return spec.IntVal(bit), true
	default: // AggregateRef
		var cur int64
		if st != nil {
			cur = st.AggValue(s.aggKey)
		}
		return spec.IntVal(cur), true
	}
}

// strHash is 32-bit FNV-1a with the top bit set, so no key hashes to the
// empty-slot mark.
func strHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h ^ h>>15 | 1<<31
}

// slot returns b's exact-string slot for key, whose strHash is h, or the
// empty slot where it would go. Tables are at most half full, so the
// probe ends.
func (w *walk) slot(b *block, h uint32, key string) *strSlot {
	tbl := w.slots[b.off : b.off+b.n]
	mask := uint32(len(tbl) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &tbl[i]
		if s.hash == 0 || s.hash == h && string(w.keys[s.off:s.off+s.n]) == key {
			return s
		}
	}
}

// lookup is the one stage walk: from a part's start to a leaf slot, one
// block per stage the state enters.
func (w *walk) lookup(cur int32, m *spec.Message, st subscription.StateReader, foreign bool) int {
	for cur >= 0 {
		b := &w.blocks[cur]
		cur = b.miss
		s := &w.stages[b.stage]
		var v spec.Value
		var present bool
		if s.kind == subscription.PacketRef && !foreign && b.layout != stringLayout {
			// An integer field of the program's own spec: its word, with
			// no Value built (the stage's kind is the field's).
			v.Int, present = m.Int(s.idx)
		} else {
			v, present = s.input(m, st, foreign)
		}
		switch {
		case !present:
		case b.layout == directLayout:
			// v − base is taken unsigned: it overflows int64 when v is
			// far above a negative base, never uint64 once v >= base.
			i := 0
			if base := b.base(); v.Int >= base {
				i = int(min(uint64(v.Int)-uint64(base)+1, uint64(b.n-1)))
			}
			cur = w.direct[int(b.off)+i]
		case b.layout == searchLayout:
			// The last bound <= v.Int; the run starts at MinInt64, so
			// there is one.
			lo := w.bounds[b.off : b.off+b.n]
			i, n := 0, len(lo)
			for n > 1 {
				half := n >> 1
				if lo[i+half] <= v.Int {
					i += half
				}
				n -= half
			}
			cur = w.next[int(b.off)+i]
		default:
			cur = b.rest
			if b.n > 0 {
				if s := w.slot(b, strHash(v.Str), v.Str); s.hash != 0 {
					cur = s.next
					break
				}
			}
			tails := w.tails[b.tailOff : b.tailOff+b.tailN]
			for i := range tails {
				if tails[i].c.Matches(v) {
					cur = tails[i].next
					break
				}
			}
		}
	}
	return int(^cur)
}

// Reindex derives the walk from Stages, Defaults, Leaf and Parts,
// and the Egress from Leaf. The compiler calls it on every program it
// returns; code that edits those fields afterwards
// (internal/analysis/corrupt) calls it again, or the dataplane keeps
// executing the tables as they were. It must not run concurrently with a
// Lookup on p. It fails, leaving p's walk as it was, on tables the walk
// cannot hold: more stages than a block's 16-bit stage index numbers, or
// an entry whose constraint is neither an integer nor a string one.
func (p *Program) Reindex() error {
	if len(p.Stages) > math.MaxUint16 {
		return fmt.Errorf("compiler: %d stages do not fit a block's 16-bit stage index", len(p.Stages))
	}
	states := len(p.Leaf)
	for _, t := range p.Stages {
		states += len(t.Defaults)
	}
	w := walk{
		stages: make([]walkStage, len(p.Stages)),
		leaves: make([]*LeafEntry, 1, len(p.Leaf)+1),
	}
	bld := walkBuilder{w: &w, enter: make(map[StateID]int32, states)}
	for i, le := range p.Leaf {
		w.leaves = append(w.leaves, le)
		bld.enter[le.In] = ^int32(i + 1)
	}
	// Last stage first: when stage i is built, enter already says where
	// every state goes from stage i+1 on.
	for i := len(p.Stages) - 1; i >= 0; i-- {
		w.stages[i] = newWalkStage(p.Spec, p.Stages[i])
		if err := bld.table(uint16(i), p.Stages[i]); err != nil {
			return err
		}
	}
	for _, part := range p.Parts {
		w.starts = append(w.starts, bld.resolve(part.Init))
	}
	w.egress = newEgress(p.Leaf)
	p.walk = w
	return nil
}

// walkBuilder holds Reindex's scratch.
type walkBuilder struct {
	w *walk
	// enter maps a state to its pre-resolved successor from the stage
	// after the one being built: the first later block it has, else its
	// leaf slot.
	enter  map[StateID]int32
	recs   []walkRec
	groups []group
	heap   []int32
}

func (bld *walkBuilder) resolve(s StateID) int32 {
	if next, ok := bld.enter[s]; ok {
		return next
	}
	return ^0 // no later block, no leaf row
}

// walkRec is one entry of the table being built, cut into the pieces the
// block layout stores: an integer entry gives one recSeg per maximal
// interval between its excluded points.
type walkRec struct {
	in     StateID
	kind   uint8
	prio   int32 // index in Table.Entries: the first matching entry wins
	next   int32
	lo, hi int64 // recSeg
}

const (
	recSeg uint8 = iota
	recExact
	recTail
)

// group is one in-state's run of the sorted pieces: recs[a:z], of which
// the first nseg are integer pieces and the next nexact exact strings.
// enter is where the state goes from this stage on: its block, or the
// successor it skips to when its block is bypassed.
type group struct {
	a, z         int
	nseg, nexact int
	enter        int32
}

// slotsFor is the size of the exact-string table of n keys: a power of
// two that leaves it at most half full.
func slotsFor(n int) int {
	if n == 0 {
		return 0
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// table appends stage's blocks: one sort over (in-state, piece kind,
// lower bound, entry order) groups every state's pieces, the slabs grow
// once by what the groups need, then each group is laid out. Only pieces
// of the stage's own kind are laid out: the stage reads no value of the
// other, and a piece of it (which only a hand-assembled table holds)
// still gives its state a block, as the state's entries do.
func (bld *walkBuilder) table(stage uint16, t *Table) error {
	ints := t.Field.Ref.Type() == spec.IntField
	recs := slices.Grow(bld.recs[:0], len(t.Entries))
	nkey := 0
	for i, e := range t.Entries {
		r := walkRec{in: e.In, prio: int32(i), next: bld.resolve(e.Out)}
		switch c := e.Match.(type) {
		case *match.IntConstraint:
			recs = appendSegs(recs, r, c)
		case *match.StrConstraint:
			r.kind = recTail
			if c.HasKnown {
				r.kind = recExact
				nkey += len(c.Known)
			}
			recs = append(recs, r)
		default:
			return fmt.Errorf("compiler: stage %s: unknown constraint type %T", t.Name(), e.Match)
		}
	}
	slices.SortFunc(recs, func(a, b walkRec) int {
		return cmp.Or(cmp.Compare(a.in, b.in), cmp.Compare(a.kind, b.kind),
			cmp.Compare(a.lo, b.lo), cmp.Compare(a.prio, b.prio))
	})
	bld.recs = recs

	groups := bld.groups[:0]
	var nseg, nslot, ntail int
	for a := 0; a < len(recs); {
		g := group{a: a, z: a}
		for g.z < len(recs) && recs[g.z].in == recs[a].in {
			switch recs[g.z].kind {
			case recSeg:
				g.nseg++
			case recExact:
				g.nexact++
			}
			g.z++
		}
		groups = append(groups, g)
		nseg += g.nseg
		nslot += slotsFor(g.nexact)
		ntail += g.z - g.a - g.nseg - g.nexact
		a = g.z
	}
	bld.groups = groups
	w := bld.w
	w.blocks = slices.Grow(w.blocks, len(groups))
	w.bounds = slices.Grow(w.bounds, 2*nseg+len(groups))
	w.next = slices.Grow(w.next, 2*nseg+len(groups))
	w.slots = slices.Grow(w.slots, nslot)
	w.keys = slices.Grow(w.keys, nkey)
	w.tails = slices.Grow(w.tails, ntail)

	header := ""
	if t.Field.Ref.Kind == subscription.ValidityRef {
		header = t.Field.Ref.Header
	}
	for i := range groups {
		g := &groups[i]
		in := recs[g.a].in
		state := in
		if d, ok := t.Defaults[in]; ok {
			state = d
		}
		b := block{stage: stage, miss: bld.resolve(state)}
		segs := recs[g.a : g.a+g.nseg]
		if header != "" {
			// A message without the header takes valid = 0, then the miss
			// of every block of the header's fields. Where that ends where
			// the valid = 1 successor's misses end, valid = 1 answers for
			// both and the test is skipped.
			on := at(segs, 1, b.miss)
			if w.absent(on, header) == w.absent(at(segs, 0, b.miss), header) {
				g.enter = on
				continue
			}
		}
		g.enter = int32(len(w.blocks))
		if ints {
			bld.paint(&b, segs)
		} else {
			b.layout, b.rest = stringLayout, b.miss
			bld.strings(&b, t, recs[g.a+g.nseg:g.a+g.nseg+g.nexact], recs[g.a+g.nseg+g.nexact:g.z])
		}
		w.blocks = append(w.blocks, b)
	}
	// Only from here on do this stage's states enter their own blocks:
	// an entry that leads to an in-state of its own stage moves on to the
	// next stage, as the pipeline does.
	for _, g := range groups {
		bld.enter[recs[g.a].in] = g.enter
	}
	return nil
}

// at is the successor of the integer pieces segs at v: that of the first
// entry containing v, else miss. It is paint's step function at one
// point.
func at(segs []walkRec, v int64, miss int32) int32 {
	win := -1
	for i, s := range segs {
		if s.lo <= v && v <= s.hi && (win < 0 || s.prio < segs[win].prio) {
			win = i
		}
	}
	if win < 0 {
		return miss
	}
	return segs[win].next
}

// absent is where a message without header goes from cur: through the
// blocks of the header's packet-field stages by their misses, since a
// present field's header is valid (spec.Message.SetIndex), to the first
// block of another stage or a leaf slot.
func (w *walk) absent(cur int32, header string) int32 {
	for cur >= 0 {
		b := &w.blocks[cur]
		if s := &w.stages[b.stage]; s.kind != subscription.PacketRef || s.field.Header != header {
			break
		}
		cur = b.miss
	}
	return cur
}

// appendSegs appends c's maximal intervals as copies of r. A constraint
// nothing satisfies still yields one (empty) piece, so that its state has
// a block.
func appendSegs(recs []walkRec, r walkRec, c *match.IntConstraint) []walkRec {
	r.kind = recSeg
	was := len(recs)
	lo, done := c.Lo, c.Lo > c.Hi
	for _, x := range c.Excluded {
		if done {
			break
		}
		if x < lo || x > c.Hi {
			continue
		}
		if x > lo {
			r.lo, r.hi = lo, x-1
			recs = append(recs, r)
		}
		if x == c.Hi {
			done = true
		} else {
			lo = x + 1
		}
	}
	if !done {
		r.lo, r.hi = lo, c.Hi
		recs = append(recs, r)
	}
	if len(recs) == was {
		r.lo, r.hi = 0, -1
		recs = append(recs, r)
	}
	return recs
}

// paint lays out one state's integer pieces (sorted by lower bound, then
// entry order) as the step function "successor of the first entry that
// contains v", b.miss where none does. Entries normally partition the
// domain; they overlap where match.maxExclusions dropped an exclusion,
// and then the earlier entry wins, as in BDD evaluation order. The sweep
// keeps the pieces containing the current point in a heap on entry
// order; adjacent intervals with one successor merge. The finished step
// function keeps its bounds or moves to the direct slab, by bytes.
func (bld *walkBuilder) paint(b *block, segs []walkRec) {
	w := bld.w
	b.off = int32(len(w.bounds))
	w.bounds = append(w.bounds, math.MinInt64)
	w.next = append(w.next, b.miss)
	h := bld.heap[:0]
	at := int64(math.MinInt64)
	for i := 0; ; {
		for ; i < len(segs) && segs[i].lo <= at; i++ {
			h = heapPush(h, segs, int32(i))
		}
		for len(h) > 0 && segs[h[0]].hi < at {
			h = heapPop(h, segs)
		}
		next := b.miss
		if len(h) > 0 {
			next = segs[h[0]].next
		}
		if last := len(w.next) - 1; next != w.next[last] {
			if w.bounds[last] == at {
				w.next[last] = next
			} else {
				w.bounds = append(w.bounds, at)
				w.next = append(w.next, next)
			}
		}
		// The step function next changes where the winning piece ends or
		// where another piece begins, whichever is first.
		switch ends := len(h) > 0 && segs[h[0]].hi < math.MaxInt64; {
		case i < len(segs) && (!ends || segs[i].lo <= segs[h[0]].hi):
			at = segs[i].lo
		case ends:
			at = segs[h[0]].hi + 1
		default:
			bld.heap = h
			b.n = int32(len(w.bounds)) - b.off
			w.pickLayout(b)
			return
		}
	}
}

// Bytes per entry of the two integer layouts: a searched block stores a
// bound and a successor per interval, a direct block a successor per
// value of its span.
const (
	searchBytes = 8 + 4
	directBytes = 4
)

// directSlots is the slot count of the direct layout of a step function
// with the given bounds (bounds[0] is MinInt64): one below bounds[1], one
// per value from bounds[1] to the last bound, or 1 when there is no
// bounds[1]. fits reports whether those slots take no more bytes than the
// bounds and successors do; slots is meaningful only when they fit.
func directSlots(bounds []int64) (slots int, fits bool) {
	if len(bounds) == 1 {
		return 1, true
	}
	// Unsigned: bounds[1] > MinInt64, so the span, up to 2^64-2, does not
	// wrap; span+2 could, and is not computed before the compare.
	span := uint64(bounds[len(bounds)-1]) - uint64(bounds[1])
	if span > uint64(len(bounds))*searchBytes/directBytes-2 {
		return 0, false
	}
	return int(span) + 2, true
}

// pickLayout moves b, just painted at the end of bounds and next, to the
// direct slab when directSlots says it fits, and marks its layout.
// Either way the block is stored once: bounds and next give back what a
// direct block took.
func (w *walk) pickLayout(b *block) {
	bounds, next := w.bounds[b.off:b.off+b.n], w.next[b.off:b.off+b.n]
	slots, fits := directSlots(bounds)
	if !fits {
		b.layout = searchLayout
		return
	}
	var base int64 // a one-slot block needs none: every value clamps to slot 0
	if len(bounds) > 1 {
		base = bounds[1]
	}
	off := len(w.direct)
	w.direct = slices.Grow(w.direct, slots)
	for i := 1; i < len(bounds); i++ {
		// A value v >= base has slot v-base+1; the slots up to bounds[i]'s
		// take the interval before it.
		for end := off + int(uint64(bounds[i])-uint64(base)) + 1; len(w.direct) < end; {
			w.direct = append(w.direct, next[i-1])
		}
	}
	w.direct = append(w.direct, next[len(next)-1])
	w.bounds, w.next = w.bounds[:b.off], w.next[:b.off]
	b.layout, b.off, b.n = directLayout, int32(off), int32(slots)
	b.baseLo, b.baseHi = uint32(base), int32(base>>32)
}

// heapPush and heapPop keep h, indices into segs, a min-heap on entry
// order.
func heapPush(h []int32, segs []walkRec, x int32) []int32 {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if segs[h[up]].prio <= segs[h[i]].prio {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

func heapPop(h []int32, segs []walkRec) []int32 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if segs[h[c]].prio < segs[h[least]].prio {
				least = c
			}
		}
		if least == i {
			return h
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// strings lays out one state's string entries, both kinds in entry
// order. Each exact key is resolved here against the entries before it,
// so a table hit is final; a residual that excludes nothing but exact
// keys of this block matches every value the table misses and becomes
// b.rest, ending the tail.
func (bld *walkBuilder) strings(b *block, t *Table, exacts, tails []walkRec) {
	w := bld.w
	constraint := func(r walkRec) *match.StrConstraint {
		return t.Entries[r.prio].Match.(*match.StrConstraint)
	}
	if len(exacts) > 0 {
		b.off, b.n = int32(len(w.slots)), int32(slotsFor(len(exacts)))
		w.slots = append(w.slots, make([]strSlot, b.n)...)
		before := 0 // tails[:before] precede the exact entry in hand
		for _, r := range exacts {
			for before < len(tails) && tails[before].prio < r.prio {
				before++
			}
			key := constraint(r).Known
			h := strHash(key)
			s := w.slot(b, h, key)
			if s.hash != 0 {
				continue // an earlier exact entry holds the key
			}
			*s = strSlot{hash: h, next: r.next, off: uint32(len(w.keys)), n: uint32(len(key))}
			w.keys = append(w.keys, key...)
			v := spec.Value{Kind: spec.StringField, Str: key}
			for _, tl := range tails[:before] {
				if constraint(tl).Matches(v) {
					s.next = tl.next
					break
				}
			}
		}
	}
	b.tailOff = int32(len(w.tails))
	for _, r := range tails {
		c := constraint(r)
		if c.IsResidual() && w.excludesOnlyKeys(b, c) {
			b.rest = r.next
			break
		}
		w.tails = append(w.tails, strTail{c: c, next: r.next})
	}
	b.tailN = int32(len(w.tails)) - b.tailOff
}

// excludesOnlyKeys reports whether every value the residual c excludes
// is a key of b's exact-string table.
func (w *walk) excludesOnlyKeys(b *block, c *match.StrConstraint) bool {
	for _, x := range c.ExcludedEq {
		if b.n == 0 || w.slot(b, strHash(x), x).hash == 0 {
			return false
		}
	}
	return true
}

package compiler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"camus/internal/bdd"
	"camus/internal/formats"
	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// refWalk is the stage walk as the seed ran it — per stage: does the
// state have entries, first entry whose Match.Matches in slice order,
// else the Defaults row, else carry the state on; then the leaf row of
// the final state. It reads only Entries, Defaults and Leaf, and is the
// reference every flat-walk test compares against.
type refWalk struct {
	p       *Program
	byState []map[StateID][]*Entry
	leaf    map[StateID]*LeafEntry
}

func newRefWalk(p *Program) *refWalk {
	r := &refWalk{p: p, leaf: make(map[StateID]*LeafEntry)}
	for _, t := range p.Stages {
		by := make(map[StateID][]*Entry)
		for _, e := range t.Entries {
			by[e.In] = append(by[e.In], e)
		}
		r.byState = append(r.byState, by)
	}
	for _, le := range p.Leaf {
		r.leaf[le.In] = le
	}
	return r
}

// lookup walks from every part's entry state and unites the leaves
// reached, as Program.Lookup documents: a leaf that does nothing is passed
// over, one that does something is itself, several a new entry with the
// first's In and every action and update key once.
func (r *refWalk) lookup(m *spec.Message, st subscription.StateReader) *LeafEntry {
	var out *LeafEntry
	idle := func(le *LeafEntry) bool { return le.Actions.IsEmpty() && len(le.Updates) == 0 }
	for _, part := range r.p.Parts {
		le := r.from(part.Init, m, st)
		switch {
		case le == nil:
		case out == nil || idle(out):
			out = le
		case idle(le):
		default:
			u := &LeafEntry{In: out.In, Actions: out.Actions.Clone(), Updates: append([]string(nil), out.Updates...)}
			u.Actions.Merge(le.Actions)
			for _, k := range le.Updates {
				if !slices.Contains(u.Updates, k) {
					u.Updates = append(u.Updates, k)
				}
			}
			out = u
		}
	}
	return out
}

// sameLeaf reports whether two lookups agree: the same row, or equal
// unions of rows.
func sameLeaf(a, b *LeafEntry) bool {
	return a == b || a != nil && b != nil && leafString(a) == leafString(b)
}

func (r *refWalk) from(state StateID, m *spec.Message, st subscription.StateReader) *LeafEntry {
	for i, t := range r.p.Stages {
		entries, in := r.byState[i][state]
		if !in {
			continue
		}
		v, present := refInput(t, m, st)
		next, took := state, false
		if present {
			for _, e := range entries {
				if e.Match.Matches(v) {
					next, took = e.Out, true
					break
				}
			}
		}
		if d, ok := t.Defaults[state]; ok && !took {
			next = d
		}
		state = next
	}
	return r.leaf[state]
}

func refInput(t *Table, m *spec.Message, st subscription.StateReader) (spec.Value, bool) {
	ref := t.Field.Ref
	switch ref.Kind {
	case subscription.PacketRef:
		idx, ok := m.Spec().SubscribableIndex(ref.Field)
		if !ok {
			return spec.Value{}, false
		}
		return m.Get(idx)
	case subscription.ValidityRef:
		if m.HeaderPresent(ref.Header) {
			return spec.IntVal(1), true
		}
		return spec.IntVal(0), true
	default:
		if st == nil {
			return spec.IntVal(0), true
		}
		return spec.IntVal(st.AggValue(ref.Key())), true
	}
}

// probes are the values worth sending through a program: every bound of
// every entry and its neighbours, every string an entry names and a near
// miss of it, and the ends of the integer domain.
type probes struct {
	// byField holds the values of packet-field stages; aggs those of
	// aggregate stages, by register key.
	byField map[*spec.Field][]spec.Value
	aggs    map[string][]int64
}

func newProbes(p *Program) *probes {
	pr := &probes{byField: make(map[*spec.Field][]spec.Value), aggs: make(map[string][]int64)}
	for _, t := range p.Stages {
		ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
		strs := []string{"", "nomatch"}
		for _, e := range t.Entries {
			switch c := e.Match.(type) {
			case *match.IntConstraint:
				ints = append(ints, c.Lo, c.Hi)
				if c.Lo > math.MinInt64 {
					ints = append(ints, c.Lo-1)
				}
				if c.Hi < math.MaxInt64 {
					ints = append(ints, c.Hi+1)
				}
				for _, x := range c.Excluded {
					ints = append(ints, x-1, x, x+1)
				}
			case *match.StrConstraint:
				strs = append(strs, c.Known, c.Known+"x", c.Required, c.Required+"z")
				strs = append(strs, c.ExcludedEq...)
				for _, px := range c.ExcludedPx {
					strs = append(strs, px, px+"q")
				}
			}
		}
		switch ref := t.Field.Ref; ref.Kind {
		case subscription.PacketRef:
			vals := pr.byField[ref.Field]
			for _, x := range ints {
				vals = append(vals, spec.IntVal(x))
			}
			for _, s := range strs {
				vals = append(vals, spec.Value{Kind: spec.StringField, Str: s})
			}
			pr.byField[ref.Field] = vals
		case subscription.AggregateRef:
			pr.aggs[ref.Key()] = ints
		}
	}
	return pr
}

// message draws one message of sp (the program's spec or one merged
// from it): headers present five times in six; a field of a present
// header takes one of its stage's probe values — which include values of
// the wrong kind — or, rarely, stays absent.
func (pr *probes) message(r *rand.Rand, sp *spec.Spec) *spec.Message {
	m := spec.NewMessage(sp)
	for hi, h := range sp.Headers {
		if r.Intn(6) == 0 {
			continue
		}
		m.MarkHeaderIndex(hi)
		for _, f := range h.Fields {
			idx, ok := sp.SubscribableIndex(f)
			if !ok || r.Intn(24) == 0 {
				continue
			}
			vals := pr.byField[f]
			switch {
			case len(vals) > 0 && r.Intn(8) != 0:
				v := vals[r.Intn(len(vals))]
				// Mostly the field's own kind.
				for try := 0; v.Kind != f.Type && try < 4; try++ {
					v = vals[r.Intn(len(vals))]
				}
				m.SetIndex(idx, v)
			case f.Type == spec.StringField:
				m.SetIndex(idx, spec.StrVal(fmt.Sprintf("S%03d", r.Intn(120))))
			default:
				m.SetIndex(idx, spec.IntVal(r.Int63n(1200)))
			}
		}
	}
	return m
}

func (pr *probes) state(r *rand.Rand) subscription.StateReader {
	if len(pr.aggs) == 0 {
		return nil
	}
	st := subscription.MapState{}
	for key, vals := range pr.aggs {
		st[key] = vals[r.Intn(len(vals))]
	}
	return st
}

// checkWalk asserts Lookup ≡ reference on n probe messages: the same
// *LeafEntry.
func checkWalk(t testing.TB, p *Program, r *rand.Rand, n int, specs ...*spec.Spec) {
	t.Helper()
	ref := newRefWalk(p)
	pr := newProbes(p)
	specs = append(specs, p.Spec)
	for i := 0; i < n; i++ {
		m := pr.message(r, specs[r.Intn(len(specs))])
		st := pr.state(r)
		if got, want := p.Lookup(m, st), ref.lookup(m, st); !sameLeaf(got, want) {
			t.Fatalf("message %s state %v:\n got leaf %v\nwant leaf %v\nprogram:\n%s",
				m, st, leafString(got), leafString(want), clip(p.String()))
		}
	}
}

func leafString(le *LeafEntry) string {
	if le == nil {
		return "<none>"
	}
	return fmt.Sprintf("%d->%s%v", le.In, le.Actions, le.Updates)
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n..."
	}
	return s
}

// The rule sets of bench/workloads.go: 500 ITCH rules over 100 symbols
// whose price thresholds come off a grid all symbols share (every 5th
// rule on a windowed average when stateful), and n (there 1000) INT
// rules of exact + range predicates.
func benchITCHRules(r *rand.Rand, stateful bool) []string {
	syms := workload.DefaultSymbols(100)
	var grid [5][10]int
	for k := range grid {
		for j := range grid[k] {
			grid[k][j] = 10 + 198*k + 19*j + r.Intn(19)
		}
	}
	out := make([]string, 500)
	for i := range out {
		k := i / 100
		p := grid[k][(i*7+k*3)%10]
		pred := fmt.Sprintf("price > %d", p)
		if stateful && i%5 == 0 {
			pred = fmt.Sprintf("avg(price, 100us) > %d", p)
		}
		out[i] = fmt.Sprintf("stock == %s and %s: fwd(%d)", syms[i%100], pred, i%48)
	}
	return out
}

func benchINTRules(r *rand.Rand, n int) []string {
	grid := make([]int, 16)
	for g := range grid {
		grid[g] = 700 + 18*g + r.Intn(6)
	}
	out := make([]string, n)
	na, nb := 0, 0
	for i := range out {
		if i%4 == 3 {
			out[i] = fmt.Sprintf("egress_port == %d and hop_latency > %d: fwd(%d)",
				nb%32, grid[(nb/32+nb)%len(grid)], i%48)
			nb++
			continue
		}
		k := na / 64
		out[i] = fmt.Sprintf("switch_id == %d and hop_latency > %d and queue_depth > %d: fwd(%d)",
			na%64, 706+18*k+r.Intn(6), 32+2*(k*5%12)+r.Intn(2), i%48)
		na++
	}
	return out
}

func compileLines(t testing.TB, sp *spec.Spec, lines []string, opts Options) *Program {
	t.Helper()
	return compile(t, sp, strings.Join(lines, "\n"), opts)
}

// TestWalkMatchesReference is the differential test of the flat walk.
func TestWalkMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	merged, err := spec.Merge("itch+int", formats.ITCH, formats.INT)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bench/itch", func(t *testing.T) {
		checkWalk(t, compileLines(t, formats.ITCH, benchITCHRules(r, false), Options{LastHop: true}), r, 4000, merged)
	})
	t.Run("bench/itch_stateful", func(t *testing.T) {
		checkWalk(t, compileLines(t, formats.ITCH, benchITCHRules(r, true), Options{LastHop: true}), r, 4000)
	})
	t.Run("bench/int", func(t *testing.T) {
		checkWalk(t, compileLines(t, formats.INT, benchINTRules(r, 400), Options{LastHop: true}), r, 4000, merged)
	})

	// Siena rule sets over each of the eight application specs, with and
	// without the implicit validity guards (without them absent fields
	// reach the Defaults rows).
	apps := []*spec.Spec{formats.ITCH, formats.INT, formats.ILA, formats.HICN,
		formats.DNS, formats.Highway, formats.Kafka, formats.NetBase}
	for _, sp := range apps {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("siena/%s/%d", sp.Name, seed), func(t *testing.T) {
				rules, err := workload.SienaRules(workload.SienaConfig{
					Spec: sp, Filters: 25, MaxPredicates: 3, IntRange: 64,
					StringValues: workload.DefaultSymbols(40), Seed: seed,
				}, 8)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Compile(sp, rules, Options{DisableValidityGuards: seed == 2})
				if err != nil {
					t.Fatal(err)
				}
				checkWalk(t, p, r, 1500)
			})
		}
	}

	// 200 incremental add/remove events, then the Canonical renumbering
	// of where they end.
	t.Run("incremental", func(t *testing.T) {
		sp := testSpec(t)
		inc, err := NewIncremental(sp, Options{LastHop: true})
		if err != nil {
			t.Fatal(err)
		}
		pool := randomRules(r, sp, 120)
		live := make(map[int]bool)
		for ev := 0; ev < 200; ev++ {
			rule := pool[r.Intn(len(pool))]
			var err error
			if live[rule.ID] {
				_, err = inc.Remove(rule.ID)
			} else {
				_, err = inc.Add(rule)
			}
			if err != nil {
				t.Fatal(err)
			}
			live[rule.ID] = !live[rule.ID]
			if ev%10 == 9 {
				checkWalk(t, inc.Program(), r, 100)
			}
		}
		checkWalk(t, inc.Program(), r, 2000)
		checkWalk(t, inc.Program().Canonical(), r, 2000)
	})
}

// randomTables assembles a program no compiler would emit: a dozen
// states shared by all six stages, entries in random order whose
// constraints overlap, are empty, name one another's in-states as
// successors or sit in a stage of the other kind, defaults with and
// without entries, leaf rows for some states only. A table's integer
// constants lie around zero or against either end of the domain, so that
// direct blocks get a base of MinInt64+1 or a last bound of MaxInt64. The
// walk owes the reference the same answer on any tables, not only on
// well-formed ones.
func randomTables(r *rand.Rand, sp *spec.Spec) *Program {
	state := func() StateID { return StateID(r.Intn(12)) }
	var org int64 // the table's constants are org-2 .. org+11
	intC := func() match.Constraint {
		c := &match.IntConstraint{Lo: org + int64(r.Intn(14)-2), Hi: org + int64(r.Intn(14)-2)}
		switch r.Intn(5) {
		case 0:
			c.Lo = math.MinInt64
		case 1:
			c.Hi = math.MaxInt64
		case 2:
			c.Lo, c.Hi = math.MinInt64, math.MaxInt64
		}
		for d := int64(-2); d < 12; d++ { // org+12 may overflow
			if x := org + d; x >= c.Lo && x <= c.Hi && r.Intn(4) == 0 {
				c.Excluded = append(c.Excluded, x)
			}
		}
		return c
	}
	words := []string{"", "A", "AB", "ABC", "B", "BA"}
	strC := func() match.Constraint {
		if r.Intn(2) == 0 {
			return &match.StrConstraint{HasKnown: true, Known: words[r.Intn(len(words))]}
		}
		c := &match.StrConstraint{Required: words[r.Intn(3)]}
		for _, w := range words { // words is sorted, as the exclusion lists must be
			if r.Intn(3) == 0 {
				c.ExcludedEq = append(c.ExcludedEq, w)
			}
			if w != "" && r.Intn(6) == 0 {
				c.ExcludedPx = append(c.ExcludedPx, w)
			}
		}
		return c
	}
	refs := []subscription.FieldRef{subscription.ValidRef("ord_sym")}
	for _, f := range sp.SubscribableFields() {
		refs = append(refs, subscription.FieldRef{Kind: subscription.PacketRef, Field: f})
	}
	price, _ := sp.Field("price")
	refs = append(refs, subscription.FieldRef{Kind: subscription.AggregateRef, Field: price, Agg: spec.AggAvg})

	p := &Program{Spec: sp, Parts: []Part{{Init: state()}}}
	for i, ref := range refs {
		t := &Table{Field: &bdd.FieldVar{Index: i, Ref: ref}, Defaults: make(map[StateID]StateID)}
		org = []int64{0, 0, math.MinInt64 + 3, math.MaxInt64 - 11}[r.Intn(4)]
		for n := r.Intn(14); n > 0; n-- {
			e := &Entry{In: state(), Out: state()}
			if (ref.Type() == spec.StringField) != (r.Intn(12) == 0) {
				e.Match = strC()
			} else {
				e.Match = intC()
			}
			t.Entries = append(t.Entries, e)
		}
		for n := r.Intn(6); n > 0; n-- {
			t.Defaults[state()] = state()
		}
		p.Stages = append(p.Stages, t)
	}
	for s := StateID(0); s < 12; s++ {
		if r.Intn(3) != 0 {
			p.Leaf = append(p.Leaf, &LeafEntry{In: s})
		}
	}
	if err := p.Reindex(); err != nil {
		panic(err) // the generator builds integer and string constraints only
	}
	return p
}

func TestWalkOnArbitraryTables(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	sp := testSpec(t)
	var atMin, atMax, searched int
	for i := 0; i < 300; i++ {
		p := randomTables(r, sp)
		checkWalk(t, p, r, 150)
		for _, b := range p.walk.blocks {
			switch {
			case b.layout == searchLayout:
				searched++
			case b.layout != directLayout || b.n < 2:
			case b.base() == math.MinInt64+1:
				atMin++
			case b.base()+int64(b.n-2) == math.MaxInt64: // the last bound
				atMax++
			}
		}
	}
	if atMin == 0 || atMax == 0 || searched == 0 {
		t.Errorf("%d direct blocks based at MinInt64+1, %d ending at MaxInt64, %d searched: a layout edge went untested", atMin, atMax, searched)
	}

	t.Run("direct edges", testDirectEdges)
}

// testDirectEdges walks a u64 field through three stages of direct
// blocks — just above MinInt64, ending at MaxInt64, and around zero, where
// the u64 values with the top bit set (negative as int64) fall below base
// — and probes every bound, its neighbours, and the domain's ends.
func testDirectEdges(t *testing.T) {
	sp := spec.MustParse("edges", "header h {\n    x : u64 @field;\n}\n")
	x, _ := sp.Field("x")
	stages := [][]int64{ // each stage's interval lower bounds
		{math.MinInt64 + 1, math.MinInt64 + 2, math.MinInt64 + 4},
		{math.MaxInt64 - 3, math.MaxInt64 - 1, math.MaxInt64},
		{-3, 0, 1, 5},
	}
	// In-state s goes to 8s+j+1 on interval j (the last one a single
	// value), else by default to 8s: every path ends in its own state.
	p := &Program{Spec: sp, Parts: []Part{{}}}
	ins := []StateID{0}
	for i, lo := range stages {
		tbl := &Table{Field: &bdd.FieldVar{Index: i, Ref: subscription.FieldRef{Kind: subscription.PacketRef, Field: x}},
			Defaults: make(map[StateID]StateID)}
		var outs []StateID
		for _, s := range ins {
			for j := range lo {
				hi := lo[j]
				if j+1 < len(lo) {
					hi = lo[j+1] - 1
				}
				tbl.Entries = append(tbl.Entries, &Entry{In: s, Out: 8*s + StateID(j+1), Match: &match.IntConstraint{Lo: lo[j], Hi: hi}})
			}
			tbl.Defaults[s] = 8 * s
			for j := 0; j <= len(lo); j++ {
				outs = append(outs, 8*s+StateID(j))
			}
		}
		p.Stages = append(p.Stages, tbl)
		ins = outs
	}
	for _, s := range ins {
		p.Leaf = append(p.Leaf, &LeafEntry{In: s})
	}
	if err := p.Reindex(); err != nil {
		t.Fatal(err)
	}

	for _, b := range p.walk.blocks {
		if b.layout != directLayout {
			t.Fatalf("stage %d block is not direct: %+v", b.stage, b)
		}
		if lo := stages[b.stage]; b.base() != lo[0] {
			t.Errorf("stage %d: base %d, want %d", b.stage, b.base(), lo[0])
		}
	}
	vals := []int64{math.MinInt64, math.MaxInt64, -1 << 62, math.MinInt64 + 1<<32, -1}
	for _, lo := range stages {
		for _, b := range append(lo, lo[len(lo)-1]+1) { // the last interval's end too
			vals = append(vals, b-1, b, b+1)
		}
	}
	ref := newRefWalk(p)
	for _, v := range vals {
		m := spec.NewMessage(sp)
		m.SetIndex(0, spec.IntVal(v))
		if got, want := p.Lookup(m, nil), ref.lookup(m, nil); got != want || got == nil {
			t.Errorf("x = %d (u64 %d): got leaf %s, reference %s", v, uint64(v), leafString(got), leafString(want))
		}
	}
}

// TestFirstMatchOrder: with more equality predicates on one field than
// match.maxExclusions keeps, the entry of `name prefix K` no longer
// excludes every exact value and overlaps the exact entries before it.
// One of them, K35's, goes where its state's default goes — `name != K35`
// keeps K35 out of the prefix rule — and is stored all the same: left to
// the miss, K35 would meet the prefix entry. The first matching entry in
// slice order must win, at every edge of the domain, for absent and
// wrong-kind values, with a default removed and for a message of another
// spec.
func TestFirstMatchOrder(t *testing.T) {
	sp := testSpec(t)
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf("price == %d: fwd(%d)", 100+3*i, 1+i%7))
		lines = append(lines, fmt.Sprintf("stock == K%02d: fwd(%d)", i, 8+i%5))
		if i != 35 {
			lines = append(lines, fmt.Sprintf("name == K%02d: fwd(%d)", i, 13+i%5))
		}
	}
	lines = append(lines, "price > 150 and price < 180: fwd(20)", "name != K35 and name prefix K: fwd(21)")
	// Validity guards off, so that a message may carry a header without
	// one of its fields and reach a Defaults row.
	p := compileLines(t, sp, lines, Options{DisableValidityGuards: true})

	overlaps, shadowed := 0, 0
	for _, st := range p.Stages {
		for i, e := range st.Entries {
			v, ok := e.Match.Exact()
			if !ok {
				continue
			}
			for _, later := range st.Entries[i+1:] {
				if later.In == e.In && later.Match.Matches(v) {
					overlaps++
					if e.Out == st.Defaults[e.In] && later.Out != e.Out {
						shadowed++
					}
				}
			}
		}
	}
	if overlaps == 0 || shadowed == 0 {
		t.Fatalf("%d entries overlap a later one, %d of them going where their state's default goes: the rule set no longer exceeds match.maxExclusions", overlaps, shadowed)
	}

	ref := newRefWalk(p)
	rules := mustRules(t, sp, strings.Join(lines, "\n"))
	// agree checks the walk against the reference and, for the intact
	// program, against the rules themselves.
	intact := p
	agree := func(p *Program, ref *refWalk, m *spec.Message) {
		t.Helper()
		if got, want := p.Lookup(m, nil), ref.lookup(m, nil); !sameLeaf(got, want) {
			t.Errorf("%s: got %s, reference %s", m, leafString(got), leafString(want))
		}
		if p != intact {
			return
		}
		if got, want := p.Eval(m, nil).Key(), subscription.MatchActions(rules, m, nil).Key(); got != want {
			t.Errorf("%s: got %s, rules say %s", m, got, want)
		}
	}
	prices := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 99, 100, 101, 102, 103, 150, 151, 152, 179, 180,
		216, 217, 218, math.MaxInt64 - 1, math.MaxInt64}
	stocks := []string{"", "K", "K00", "K01", "K31", "K32", "K33", "K34", "K35", "K36", "K39", "K40", "K1", "K001", "ZZ"}
	for _, price := range prices {
		for _, stock := range stocks {
			m := spec.NewMessage(sp)
			m.MustSet("shares", spec.IntVal(1))
			m.MustSet("price", spec.IntVal(price))
			m.MustSet("stock", spec.StrVal(stock))
			m.MustSet("name", spec.StrVal(stock))
			agree(p, ref, m)
		}
	}

	base := func() *spec.Message {
		m := spec.NewMessage(sp)
		m.MustSet("shares", spec.IntVal(1))
		m.MustSet("price", spec.IntVal(103))
		m.MustSet("stock", spec.StrVal("K05"))
		m.MustSet("name", spec.StrVal("K1x"))
		return m
	}
	priceIdx, _ := sp.SubscribableIndex(mustField(t, sp, "price"))
	stockIdx, _ := sp.SubscribableIndex(mustField(t, sp, "stock"))

	wrongKind := base()
	wrongKind.SetIndex(priceIdx, spec.StrVal("103"))
	agree(p, ref, wrongKind)
	wrongKind = base()
	wrongKind.SetIndex(stockIdx, spec.IntVal(5))
	agree(p, ref, wrongKind)

	// Header present, field absent: the Defaults row. The stage is found
	// by what it does — it is the one holding Init's default, whichever
	// field the variable order tests first — and the message is base()
	// without that stage's field.
	initStage := func(p *Program) *Table {
		for _, st := range p.Stages {
			if _, ok := st.Defaults[p.Parts[0].Init]; ok {
				return st
			}
		}
		t.Fatal("no stage holds a default for the initial state")
		return nil
	}
	first := initStage(p).Field.Ref.Field
	absent := spec.NewMessage(sp)
	absent.MarkHeader(first.Header)
	for i, f := range sp.SubscribableFields() {
		if v, ok := base().Get(i); ok && f != first {
			absent.SetIndex(i, v)
		}
	}
	agree(p, ref, absent)
	if p.Lookup(absent, nil) == nil {
		t.Fatalf("absent %s should still reach a leaf through the default", first.Name)
	}

	// The same message once the state's default is gone: the state is
	// carried on, enters no later stage and has no leaf row.
	broken := compileLines(t, sp, lines, Options{DisableValidityGuards: true})
	delete(initStage(broken).Defaults, broken.Parts[0].Init)
	if err := broken.Reindex(); err != nil {
		t.Fatal(err)
	}
	brokenRef := newRefWalk(broken)
	agree(broken, brokenRef, absent)
	if slot := broken.LeafSlot(0, absent, nil); slot != 0 {
		t.Fatalf("default removed: the first part's walk got leaf %s, want none", leafString(broken.LeafAt(slot)))
	}
	agree(broken, brokenRef, base())

	// A message of a merged spec resolves its fields by name, not index.
	other := spec.MustParse("other", "header pre {\n    x : u32 @field;\n}\n")
	merged, err := spec.Merge("merged", other, sp)
	if err != nil {
		t.Fatal(err)
	}
	foreign := spec.NewMessage(merged)
	foreign.MustSet("x", spec.IntVal(9))
	foreign.MustSet("shares", spec.IntVal(1))
	foreign.MustSet("price", spec.IntVal(103))
	foreign.MustSet("stock", spec.StrVal("K39"))
	foreign.MustSet("name", spec.StrVal("K1"))
	agree(p, ref, foreign)
	if got, want := p.Eval(foreign, nil).Key(), p.Eval(baseWith(base(), "stock", "K39", "name", "K1"), nil).Key(); got != want {
		t.Errorf("merged-spec message: got %s, same-spec twin %s", got, want)
	}
}

func baseWith(m *spec.Message, kv ...string) *spec.Message {
	for i := 0; i < len(kv); i += 2 {
		m.MustSet(kv[i], spec.StrVal(kv[i+1]))
	}
	return m
}

func mustField(t *testing.T, sp *spec.Spec, name string) *spec.Field {
	t.Helper()
	f, ok := sp.Field(name)
	if !ok {
		t.Fatalf("no field %q", name)
	}
	return f
}

// fuzzRules derives 1–6 rules over every predicate shape from fuzz
// bytes; next returns 0 once the bytes run out.
func fuzzRules(next func() int) string {
	intRels := []string{"==", "!=", "<", "<=", ">", ">="}
	consts := []int{0, 1, 2, 60, 61, 100, 1000}
	syms := []string{"GOOGL", "MSFT", "GO", "A"}
	var b strings.Builder
	for i, n := 0, 1+next()%6; i < n; i++ {
		for j, atoms := 0, 1+next()%3; j < atoms; j++ {
			if j > 0 {
				b.WriteString([]string{" and ", " and ", " or "}[next()%3])
			}
			switch next() % 6 {
			case 0:
				fmt.Fprintf(&b, "shares %s %d", intRels[next()%6], consts[next()%7])
			case 1:
				fmt.Fprintf(&b, "price %s %d", intRels[next()%6], consts[next()%7])
			case 2:
				fmt.Fprintf(&b, "stock == %s", syms[next()%4])
			case 3:
				fmt.Fprintf(&b, "name %s %s", []string{"==", "!=", "prefix"}[next()%3], syms[next()%4])
			case 4:
				fmt.Fprintf(&b, "avg(price) %s %d", intRels[next()%6], consts[next()%7])
			default: // one of 34 dense values, as INT's egress ports
				fmt.Fprintf(&b, "shares == %d", next()%34)
			}
		}
		fmt.Fprintf(&b, ": fwd(%d)\n", 1+next()%4)
	}
	return b.String()
}

// FuzzLookup is the differential fuzzer of the flat walk against
// refWalk: rule bytes choose the program, message bytes the packet and
// the register values. (Program against rules is FuzzCompileProve's job,
// in internal/analysis/prove.)
func FuzzLookup(f *testing.F) {
	f.Add([]byte{}, []byte{}, false)
	f.Add([]byte{1, 1, 0, 0, 2, 2, 0}, []byte{3, 60, 61, 0, 1}, false)
	f.Add([]byte{3, 2, 4, 3, 1, 2, 1, 0, 5, 1, 2, 3, 3, 2, 2}, []byte{3, 100, 2, 1, 1, 61}, true)
	f.Add([]byte{5, 2, 3, 2, 0, 3, 1, 1, 2, 2, 4, 0, 3, 1, 1, 0, 1, 5}, []byte{2, 0, 0, 3, 3, 200}, true)
	// A dense-port program, shares == 0, 1, 2, 3, 5, 6: a direct block
	// of 9 slots where a search would hold 9 bounds.
	dense := []byte{5, 0, 5, 0, 0, 0, 5, 1, 1, 0, 5, 2, 2, 0, 5, 3, 3, 0, 5, 5, 0, 0, 5, 6, 1}
	f.Add(dense, []byte{1, 16, 0}, false)
	f.Add(dense, []byte{1, 18, 1}, true)
	f.Fuzz(func(t *testing.T, ruleBytes, msgBytes []byte, lastHop bool) {
		reader := func(data []byte) func() int {
			return func() int {
				if len(data) == 0 {
					return 0
				}
				b := data[0]
				data = data[1:]
				return int(b)
			}
		}
		sp := testSpec(t)
		rules, err := subscription.NewParser(sp).ParseRules(fuzzRules(reader(ruleBytes)))
		if err != nil {
			t.Skip() // the generator can emit shapes the parser rejects
		}
		p, err := Compile(sp, rules, Options{LastHop: lastHop})
		if err != nil {
			t.Skip()
		}
		next := reader(msgBytes)
		m := spec.NewMessage(sp)
		present := next()
		ints := []int64{0, 1, 2, 59, 60, 61, 62, 99, 100, 101, 999, 1000, 1001, math.MinInt64, math.MaxInt64, 31, 32, 33, -1}
		strs := []string{"GOOGL", "MSFT", "GO", "A", "", "GOO", "GOOGLE", "AA", "B"}
		if present&1 != 0 {
			m.MustSet("shares", spec.IntVal(ints[next()%len(ints)]))
			m.MustSet("price", spec.IntVal(ints[next()%len(ints)]))
		}
		if present&2 != 0 {
			m.MustSet("stock", spec.StrVal(strs[next()%len(strs)]))
			m.MustSet("name", spec.StrVal(strs[next()%len(strs)]))
		}
		st := subscription.MapState{}
		for _, stage := range p.Stages {
			if stage.Field.Ref.Kind == subscription.AggregateRef {
				st[stage.Field.Ref.Key()] = ints[next()%len(ints)]
			}
		}
		if got, want := p.Lookup(m, st), newRefWalk(p).lookup(m, st); !sameLeaf(got, want) {
			t.Fatalf("%s state %v: got %s, reference %s\n%s", m, st, leafString(got), leafString(want), p)
		}
	})
}

// lookupPool is a pool of messages large enough that neither the branch
// predictor nor the cache learns it: n messages over the ranges rules
// draws its constants from.
func itchPool(r *rand.Rand, n int) []*spec.Message {
	syms := workload.DefaultSymbols(110) // a tenth name no rule
	pool := spec.NewMessages(formats.ITCH, n)
	for _, m := range pool {
		(&formats.Order{Stock: syms[r.Intn(len(syms))], Price: int64(r.Intn(1100)), Shares: int64(r.Intn(1000))}).FillMessage(m)
	}
	return pool
}

func intPool(r *rand.Rand, n int) []*spec.Message {
	pool := spec.NewMessages(formats.INT, n)
	for _, m := range pool {
		(&formats.INTReport{FlowID: int64(r.Uint32()), SwitchID: int64(r.Intn(64)), HopLatency: int64(r.Intn(1000)),
			QueueDepth: int64(r.Intn(64)), EgressPort: int64(r.Intn(32))}).FillMessage(m)
	}
	return pool
}

// BenchmarkLookup walks a pool of 8192 random messages round and round,
// as the switch does (LeafSlot, every part): a stage of fan-out 101 (100
// symbols and the rest) then price ranges, and the INT shape of exact and
// range stages, two parts. walkB/lookup is walkCost's bytes read from the
// flat tables per message, averaged over the pool: 116.4 on ITCH and
// 213.9 on INT; ITCH read 118.6 while its stock keys were compared
// through the keys slab, and 158.6 and 293.9 while every part's walk
// began with a validity block. The pools are seeded, so make perf-guard
// holds it exactly.
func BenchmarkLookup(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	for _, bc := range []struct {
		name string
		p    *Program
		pool []*spec.Message
	}{
		{"fanout100", compileLines(b, formats.ITCH, benchITCHRules(r, false), Options{LastHop: true}), itchPool(r, 8192)},
		{"int", compileLines(b, formats.INT, benchINTRules(r, 400), Options{LastHop: true}), intPool(r, 8192)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			touched := 0
			for _, m := range bc.pool {
				_, _, bytes, _ := walkCost(bc.p, m)
				touched += bytes
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < bc.p.Walks(); j++ {
					sinkSlot += bc.p.LeafSlot(j, bc.pool[i&8191], nil)
				}
			}
			b.ReportMetric(float64(touched)/float64(len(bc.pool)), "walkB/lookup")
		})
	}
}

var (
	sinkLeaf *LeafEntry
	sinkSlot int
)

// TestLookupZeroAlloc: the walk allocates nothing on exact, range,
// aggregate, string-table, string-tail and word stages, for one part or
// for several (the INT rules test two field sets: two parts). Lookup of a
// one-part program returns the leaf row itself and allocates nothing
// either; with parts it may build a union.
//
// ITCH's stock (str8) is a word stage, read three ways: from decoded
// messages, whose stock sits in the message's spare word (one load);
// from Set-built ones, whose bytes are gathered; and by a key longer than
// the field, which is a tail: a Set-built value that long meets it there,
// and a short one misses the table and tries it. A word stage with
// prefix rules keeps its prefixes as tails too. On those, Lookup agrees
// with refWalk and Eval with MatchActions.
func TestLookupZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sp := testSpec(t)
	tails := compile(t, sp, "name prefix GO and shares > 10: fwd(3)\nname prefix M: fwd(4)\nstock == GOOGL: fwd(1)", Options{})
	tailPool := spec.NewMessages(sp, 512)
	for i, m := range tailPool {
		m.MustSet("shares", spec.IntVal(int64(i%20)))
		m.MustSet("price", spec.IntVal(int64(i)))
		m.MustSet("stock", spec.StrVal([]string{"GOOGL", "MSFT"}[i%2]))
		m.MustSet("name", spec.StrVal([]string{"GOOGL", "GO", "MSFT", "A"}[i%4]))
	}
	// 30 symbols and a key longer than the field, whose entry is a tail
	// that short values missing the table meet.
	const long = "LONGERTHAN8"
	wordRules := mustRules(t, formats.ITCH, strings.Join(benchITCHRules(r, false)[:30], "\n")+
		"\nstock == "+long+" and price > 100: fwd(47)\nstock != "+long+" and price < 50: fwd(46)")
	word, err := Compile(formats.ITCH, wordRules, Options{LastHop: true})
	if err != nil {
		t.Fatal(err)
	}
	tagSpec := spec.MustParse("tag", "header t {\n    tag : str8 @field;\n    qty : u16 @field;\n}\n")
	prefixRules := mustRules(t, tagSpec, "tag prefix GO and qty > 10: fwd(3)\ntag prefix M: fwd(4)\ntag == GOOGL: fwd(1)")
	prefix, err := Compile(tagSpec, prefixRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prefixPool := spec.NewMessages(tagSpec, 512)
	for i, m := range prefixPool {
		m.MustSet("qty", spec.IntVal(int64(i%20)))
		m.MustSet("tag", spec.StrVal([]string{"GOOGL", "GO", "MSFT", "A", long}[i%5]))
	}
	longPool := itchPool(r, 512)
	for i, m := range longPool {
		if i%3 == 0 {
			m.MustSet("stock", spec.StrVal(long))
		}
	}
	for _, c := range []struct {
		name  string
		p     *Program
		rules []*subscription.Rule // when set, the pool's messages are checked against them
		pool  []*spec.Message
		st    subscription.StateReader
	}{
		{"itch", compileLines(t, formats.ITCH, benchITCHRules(r, true), Options{LastHop: true}), nil, itchPool(r, 512), subscription.MapState{}},
		{"int", compileLines(t, formats.INT, benchINTRules(r, 200), Options{LastHop: true}), nil, intPool(r, 512), nil},
		{"tails", tails, nil, tailPool, nil},
		{"word/decoded", word, wordRules, decodedITCHPool(t, r, 512), nil},
		{"word/set", word, wordRules, itchPool(r, 512), nil},
		{"word/longer-key", word, wordRules, longPool, nil},
		{"word/prefix-tails", prefix, prefixRules, prefixPool, nil},
	} {
		if c.p.Spec == formats.INT && len(c.p.Parts) < 2 {
			t.Fatalf("the INT program has %d parts, want 2", len(c.p.Parts))
		}
		if c.rules != nil {
			ref := newRefWalk(c.p)
			for _, m := range c.pool {
				if got, want := c.p.Lookup(m, c.st), ref.lookup(m, c.st); !sameLeaf(got, want) {
					t.Fatalf("%s %s: got leaf %s, reference %s", c.name, m, leafString(got), leafString(want))
				}
				if got, want := c.p.Eval(m, c.st).Key(), subscription.MatchActions(c.rules, m, c.st).Key(); got != want {
					t.Fatalf("%s %s: got %s, rules say %s", c.name, m, got, want)
				}
			}
		}
		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			for j := 0; j < c.p.Walks(); j++ {
				sinkSlot += c.p.LeafSlot(j, c.pool[i&511], c.st)
			}
			i++
		}); n != 0 {
			t.Errorf("%s: %v allocs per walk, want 0", c.name, n)
		}
		// A lookup that unites the leaves of two parts builds the union.
		if len(c.p.Parts) > 1 {
			continue
		}
		if n := testing.AllocsPerRun(2000, func() {
			sinkLeaf = c.p.Lookup(c.pool[i&511], c.st)
			i++
		}); n != 0 {
			t.Errorf("%s: %v allocs per lookup, want 0", c.name, n)
		}
	}
	if len(tails.walk.tails) == 0 {
		t.Error("the prefix program has no string tail: the tail path went untested")
	}
	for _, p := range []*Program{word, prefix} {
		words, tails := 0, 0
		for _, b := range p.walk.blocks {
			if b.layout == wordLayout {
				words++
				tails += int(b.tailN)
			}
		}
		if words == 0 || tails == 0 {
			t.Errorf("the %s program has %d word blocks with %d tails: the word path or its tails went untested", p.Spec.Name, words, tails)
		}
	}
}

// decodedITCHPool is itchPool's orders encoded as ITCH frames of 8 and
// decoded, so each stock sits in its message's spare word.
func decodedITCHPool(t testing.TB, r *rand.Rand, n int) []*spec.Message {
	syms := workload.DefaultSymbols(110)
	var pool []*spec.Message
	for len(pool) < n {
		orders := make([]*formats.Order, 8)
		for i := range orders {
			orders[i] = &formats.Order{Stock: syms[r.Intn(len(syms))], Price: int64(r.Intn(1100)), Shares: int64(r.Intn(1000))}
		}
		frame, err := formats.EncodeITCHFeed("S", 1, orders)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := formats.DecodeITCHFeed(frame)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, msgs...)
	}
	return pool[:n]
}

// walkCost replays w.lookup from every part's start for a same-spec
// message and counts what the walks read from the walk's slices (the CRAM
// measure: dependent memory accesses, and the bytes and distinct 64-byte
// lines behind them). The message's own fields and the leaf rows are not
// counted.
func walkCost(p *Program, m *spec.Message) (blocks, accesses, bytes, lines int) {
	w := &p.walk
	seen := make(map[[2]uintptr]bool)
	touch := func(region, off, size uintptr) {
		accesses++
		bytes += int(size)
		for l := off / 64; l <= (off+size-1)/64; l++ {
			if !seen[[2]uintptr{region, l}] {
				seen[[2]uintptr{region, l}] = true
				lines++
			}
		}
	}
	for _, start := range w.starts {
		walkCostFrom(w, start, m, touch, &blocks)
	}
	return blocks, accesses, bytes, lines
}

// walkCostFrom is walkCost's walk from one start.
func walkCostFrom(w *walk, cur int32, m *spec.Message, touch func(region, off, size uintptr), blocks *int) {
	for cur >= 0 {
		b := &w.blocks[cur]
		*blocks++
		touch(0, uintptr(cur)*blockSize, blockSize)
		cur = b.miss
		v, present := w.stages[b.stage].input(m, nil, false)
		switch {
		case !present:
		case b.layout == directLayout:
			i := 0
			if v.Int >= b.base() {
				i = int(min(uint64(v.Int)-uint64(b.base())+1, uint64(b.n-1)))
			}
			touch(3, uintptr(int(b.off)+i)*4, 4)
			cur = w.direct[int(b.off)+i]
		case b.layout == searchLayout:
			i, n := 0, int(b.n)
			for n > 1 {
				half := n >> 1
				touch(1, uintptr(int(b.off)+i+half)*8, 8)
				if w.bounds[int(b.off)+i+half] <= v.Int {
					i += half
				}
				n -= half
			}
			touch(2, uintptr(int(b.off)+i)*4, 4)
			cur = w.next[int(b.off)+i]
		default:
			cur = b.rest
			hit := false
			// A word block's key is in its slot: a probe reads the slot
			// alone. A value that is no word key probes no word table.
			k, word := spec.WordKey(v.Str)
			h := strHash(v.Str)
			if b.layout == wordLayout {
				h = wordHash(k)
			}
			if b.n > 0 && (word || b.layout == stringLayout) {
				mask := uint32(b.n - 1)
				for i := h & mask; ; i = (i + 1) & mask {
					s := &w.slots[uint32(b.off)+i]
					touch(4, uintptr(uint32(b.off)+i)*16, 16)
					switch {
					case s.hash == 0:
					case b.layout == wordLayout:
						hit = s.key == k
					case s.hash == h:
						off, n := s.key>>32, s.key&(1<<32-1)
						touch(5, uintptr(off), uintptr(n)) // the key's bytes
						hit = string(w.keys[off:off+n]) == v.Str
					}
					if hit {
						cur = s.next
					}
					if hit || s.hash == 0 {
						break
					}
				}
			}
			for i := 0; !hit && i < int(b.tailN); i++ {
				tl := &w.tails[int(b.tailOff)+i]
				touch(6, uintptr(int(b.tailOff)+i)*16, 16)
				touch(7+uintptr(int(b.tailOff)+i), 0, 64) // the constraint it points to
				if tl.c.Matches(v) {
					cur, hit = tl.next, true
				}
			}
		}
	}
}

// TestWalkCost reports the per-lookup cost DESIGN.md §18 quotes, and
// pins its order of magnitude: a lookup on the benchmark's programs
// enters at most one block per stage and part and stays within a few
// cache lines per block.
//
// The ceilings are the figures of the walk that skips the validity
// blocks the next field test answers, with a percent or two of slack:
// ITCH 1.92 blocks, 6.98 accesses, 117.0 bytes, 5.48 lines per lookup
// and 14.6 KB flat, INT in two parts 3.58, 15.4, 209 and 11.5, INT as
// one diagram 2.57, 10.4, 145 and 9.4. ITCH's stock keys sit in their
// slots as words; compared through the keys slab they cost 7.80
// accesses, 119.2 bytes, 6.41 lines and 15.0 KB. Each test of
// valid(header) cost one block per part before: 2.92, 9.8, 159 and 8.4
// on ITCH, 5.58, 19.4, 289 and 13.3 on INT. (INT as one diagram was 23.8
// accesses, 276 bytes and 15.5 lines when every integer block was
// searched.)
func TestWalkCost(t *testing.T) {
	if blockSize != 36 {
		t.Errorf("block is %d bytes, want 36", blockSize)
	}
	r := rand.New(rand.NewSource(4))
	for _, c := range []struct {
		name string
		p    *Program
		pool []*spec.Message
		// Ceilings per lookup, and of the flat form.
		blocks, accesses, bytes, lines, kb float64
	}{
		{"itch", compileLines(t, formats.ITCH, benchITCHRules(r, false), Options{LastHop: true}), itchPool(r, 4096), 1.95, 7.1, 118, 5.6, 15},
		{"int", compileLines(t, formats.INT, benchINTRules(r, 1000), Options{LastHop: true}), intPool(r, 4096), 3.6, 15.5, 210, 11.6, 96},
		{"int-one-diagram", compileLines(t, formats.INT, benchINTRules(r, 1000), Options{LastHop: true, OneDiagram: true}), intPool(r, 4096), 2.6, 10.5, 146, 9.5, 850},
	} {
		var blocks, accesses, bytes, lines int
		for _, m := range c.pool {
			b, a, by, l := walkCost(c.p, m)
			blocks, accesses, bytes, lines = blocks+b, accesses+a, bytes+by, lines+l
		}
		n := float64(len(c.pool))
		w := &c.p.walk
		kb := float64(flatBytes(w)) / 1024
		t.Logf("%s: %d stages, %d entries, %d blocks, %d bounds, %d direct slots, %d string slots, %d tails (%.1f KB flat); per lookup: %.2f blocks, %.1f dependent accesses, %.0f bytes, %.1f cache lines",
			c.name, len(c.p.Stages), c.p.TotalEntries(), len(w.blocks), len(w.bounds), len(w.direct), len(w.slots), len(w.tails), kb,
			float64(blocks)/n, float64(accesses)/n, float64(bytes)/n, float64(lines)/n)
		walks := float64(len(c.p.Parts))
		if perBlock := float64(lines) / float64(blocks); float64(blocks)/n > walks*float64(len(c.p.Stages)) || perBlock > 6 {
			t.Errorf("%s: %.2f blocks per lookup over %d stages, %.1f cache lines per block", c.name, float64(blocks)/n, len(c.p.Stages), perBlock)
		}
		if float64(blocks)/n > c.blocks || float64(accesses)/n > c.accesses || float64(bytes)/n > c.bytes || float64(lines)/n > c.lines || kb > c.kb {
			t.Errorf("%s: over a ceiling (%.2f blocks, %.1f accesses, %.0f bytes, %.1f lines per lookup, %.0f KB flat)", c.name, c.blocks, c.accesses, c.bytes, c.lines, c.kb)
		}
	}
}

// TestValidityBypass: Reindex drops a validity block exactly where its
// valid = 1 and valid = 0 successors, each followed through the header's
// field blocks by their misses, end in the same place. One table; every
// case runs every check: the validity blocks the walk keeps for the
// header, the blocks a message with the header and its twin without it
// enter, and Lookup ≡ refWalk and Eval ≡ MatchActions on both, on a
// merged-spec twin, on probe messages, and — refWalk only — after each
// drop-default mutation (what corrupt's drop-default does) and a Reindex.
func TestValidityBypass(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	sp := testSpec(t)
	narrow := spec.MustParse("narrow", "header flags {\n    flag : u1 @field;\n    pad : u7;\n}\n")
	chained := spec.MustParse("chained", "header a {\n    x : u16 @field;\n}\nheader b {\n    y : u16 @field;\n}\n")
	itchINT, err := spec.Merge("itch+int", formats.ITCH, formats.INT)
	if err != nil {
		t.Fatal(err)
	}
	other := spec.MustParse("other", "header pre {\n    z : u8 @field;\n}\n")
	for _, c := range []struct {
		name   string
		sp     *spec.Spec
		rules  string
		opts   Options
		header string
		msg    string // "field=value ..." of a message with the header
		kept   int    // the header's validity blocks that stay
		// Blocks the message enters with the header and without it.
		with, without int
	}{
		// An absent field takes the lo branch, and for NE, GE and LE the
		// lo branch is where the rule matches: valid = 0 and the field's
		// miss part ways.
		{name: "not", sp: sp, rules: "not (price > 5): fwd(1)", header: "ord_qty", msg: "price=3 shares=1", kept: 1, with: 2, without: 1},
		{name: "ne", sp: sp, rules: "stock != GOOGL: fwd(1)", header: "ord_sym", msg: "stock=MSFT name=M", kept: 1, with: 2, without: 1},
		{name: "ge", sp: sp, rules: "price >= 3: fwd(1)", header: "ord_qty", msg: "price=3 shares=1", kept: 1, with: 2, without: 1},
		// The aggregate stage is no field of the header: the walk stops
		// there on one side and drops on the other.
		{name: "aggregate", sp: sp, rules: "avg(price, 1s) > 4: fwd(1)", opts: Options{LastHop: true}, header: "ord_qty", msg: "price=3 shares=1", kept: 1, with: 2, without: 1},
		// Once price == 5 and price < 5 have failed, price > 5 is implied:
		// the lo walk is fwd(3).
		{name: "exhausted", sp: sp, rules: "price == 5: fwd(1)\nprice < 5: fwd(2)\nprice > 5: fwd(3)", header: "ord_qty", msg: "price=5 shares=1", kept: 1, with: 2, without: 1},
		// Equalities that cover a 1-bit field's two values do not exhaust
		// its constraints, which range over int64: the lo walk drops, as
		// valid = 0 does.
		{name: "narrow-eq", sp: narrow, rules: "flag == 0: fwd(1)\nflag == 1: fwd(2)", header: "flags", msg: "flag=1", kept: 0, with: 1, without: 1},
		// valid(a) leads to valid(b), a stage of no field of a.
		{name: "chained", sp: chained, rules: "x > 5 and y > 3: fwd(1)", header: "a", msg: "x=9 y=9", kept: 1, with: 4, without: 1},
		// In one diagram of both applications, valid(int_report) follows
		// valid(itch_order): once itch_order is valid it leads to stock, no
		// field of int_report, and stays; otherwise it goes.
		{name: "merged/one-diagram", sp: itchINT, rules: "stock == GOOGL and price > 5: fwd(1)\nswitch_id == 3 and hop_latency > 700: fwd(2)",
			header: "int_report", msg: "stock=GOOGL price=9 switch_id=3 hop_latency=800", kept: 1, with: 6, without: 4},
		{name: "bench/itch", sp: formats.ITCH, rules: strings.Join(benchITCHRules(r, false), "\n"), opts: Options{LastHop: true},
			header: "itch_order", msg: "stock=" + workload.DefaultSymbols(100)[7] + " price=500 shares=10", kept: 0, with: 2, without: 1},
		{name: "bench/int", sp: formats.INT, rules: strings.Join(benchINTRules(r, 200), "\n"), opts: Options{LastHop: true},
			header: "int_report", msg: "switch_id=3 hop_latency=800 queue_depth=50 egress_port=4", kept: 0, with: 5, without: 2},
		{name: "merged/itch", sp: itchINT, rules: strings.Join(benchITCHRules(r, false)[:100], "\n"), opts: Options{LastHop: true},
			header: "itch_order", msg: "stock=" + workload.DefaultSymbols(100)[7] + " price=500 switch_id=3", kept: 0, with: 2, without: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			rules := mustRules(t, c.sp, c.rules)
			p, err := Compile(c.sp, rules, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			states, kept := 0, 0
			for _, st := range p.Stages {
				if ref := st.Field.Ref; ref.Kind == subscription.ValidityRef && ref.Header == c.header {
					ins := map[StateID]bool{}
					for _, e := range st.Entries {
						ins[e.In] = true
					}
					states += len(ins)
				}
			}
			for _, b := range p.walk.blocks {
				if s := p.walk.stages[b.stage]; s.kind == subscription.ValidityRef && s.header == c.header {
					kept++
				}
			}
			if states == 0 || kept != c.kept {
				t.Errorf("%d of %d validity states of %s keep a block, want %d", kept, states, c.header, c.kept)
			}

			with := spec.NewMessage(c.sp)
			for _, kv := range strings.Fields(c.msg) {
				name, val, _ := strings.Cut(kv, "=")
				v := spec.StrVal(val)
				if n, err := strconv.ParseInt(val, 10, 64); err == nil {
					v = spec.IntVal(n)
				}
				with.MustSet(name, v)
			}
			without := spec.NewMessage(c.sp)
			for i, f := range c.sp.SubscribableFields() {
				if v, ok := with.Get(i); ok && f.Header != c.header {
					without.SetIndex(i, v)
				}
			}
			merged, err := spec.Merge("merged", other, c.sp)
			if err != nil {
				t.Fatal(err)
			}
			foreign := spec.NewMessage(merged)
			for i, f := range c.sp.SubscribableFields() {
				if v, ok := with.Get(i); ok {
					foreign.MustSet(f.QName(), v)
				}
			}
			foreign.MustSet("z", spec.IntVal(1))
			st := subscription.MapState{}
			for _, stage := range p.Stages {
				if ref := stage.Field.Ref; ref.Kind == subscription.AggregateRef {
					st[ref.Key()] = 9
				}
			}

			for _, m := range []struct {
				name   string
				m      *spec.Message
				blocks int
			}{{"with", with, c.with}, {"without", without, c.without}, {"foreign", foreign, -1}} {
				if m.blocks >= 0 {
					if blocks, _, _, _ := walkCost(p, m.m); blocks != m.blocks {
						t.Errorf("%s %s: %d blocks, want %d", m.name, m.m, blocks, m.blocks)
					}
				}
				if got, want := p.Lookup(m.m, st), newRefWalk(p).lookup(m.m, st); !sameLeaf(got, want) {
					t.Errorf("%s %s: got leaf %s, reference %s", m.name, m.m, leafString(got), leafString(want))
				}
				if got, want := p.Eval(m.m, st).Key(), subscription.MatchActions(rules, m.m, st).Key(); got != want {
					t.Errorf("%s %s: got %s, rules say %s", m.name, m.m, got, want)
				}
			}
			checkWalk(t, p, r, 500, merged)

			// Each default dropped in turn, then put back.
			for i, stage := range p.Stages {
				var ins []StateID
				for in := range stage.Defaults {
					ins = append(ins, in)
				}
				slices.Sort(ins)
				for _, in := range ins {
					out := stage.Defaults[in]
					delete(stage.Defaults, in)
					if err := p.Reindex(); err != nil {
						t.Fatal(err)
					}
					ref := newRefWalk(p)
					for _, m := range []*spec.Message{with, without, foreign} {
						if got, want := p.Lookup(m, st), ref.lookup(m, st); !sameLeaf(got, want) {
							t.Errorf("stage %d default of %d dropped, %s: got leaf %s, reference %s", i, in, m, leafString(got), leafString(want))
						}
					}
					checkWalk(t, p, r, 50, merged)
					stage.Defaults[in] = out
				}
			}
		})
	}
}

// blockSize is a block header's bytes, what walkCost counts per block.
const blockSize = unsafe.Sizeof(block{})

// flatBytes is the size of w's slices, leaves and stages aside.
func flatBytes(w *walk) int {
	return len(w.blocks)*int(blockSize) + len(w.bounds)*searchBytes + len(w.direct)*directBytes +
		len(w.slots)*int(unsafe.Sizeof(strSlot{})) + len(w.keys) + len(w.tails)*int(unsafe.Sizeof(strTail{}))
}

// TestDirectLayoutNeverGrows: on the bench/ rule shapes and Siena rule
// sets over every application spec, an integer block is direct exactly
// when a successor per value of its span takes no more bytes than its
// bounds and successors, so the flat form never outgrows the one in which
// every integer block is searched.
func TestDirectLayoutNeverGrows(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	progs := map[string]*Program{
		"itch":          compileLines(t, formats.ITCH, benchITCHRules(r, false), Options{LastHop: true}),
		"itch_stateful": compileLines(t, formats.ITCH, benchITCHRules(r, true), Options{LastHop: true}),
		"int":           compileLines(t, formats.INT, benchINTRules(r, 1000), Options{LastHop: true}),
	}
	for _, sp := range []*spec.Spec{formats.ITCH, formats.INT, formats.ILA, formats.HICN,
		formats.DNS, formats.Highway, formats.Kafka, formats.NetBase} {
		rules, err := workload.SienaRules(workload.SienaConfig{
			Spec: sp, Filters: 25, MaxPredicates: 3, IntRange: 64,
			StringValues: workload.DefaultSymbols(40), Seed: 1,
		}, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(sp, rules, Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs["siena/"+sp.Name] = p
	}

	directs := 0
	for name, p := range progs {
		w := &p.walk
		// searched is the flat form with every direct block searched
		// instead: its bounds are where its successor changes.
		searched := flatBytes(w) - len(w.direct)*directBytes
		for i, b := range w.blocks {
			switch b.layout {
			case searchLayout:
				bounds := w.bounds[b.off : b.off+b.n]
				span := uint64(bounds[len(bounds)-1]) - uint64(bounds[1])
				if span < 1<<32 && 4*(span+2) <= 12*uint64(len(bounds)) {
					t.Errorf("%s block %d: searched, but %d bounds span %d values", name, i, len(bounds), span+1)
				}
			case directLayout:
				directs++
				slots, nb := w.direct[b.off:b.off+b.n], 1
				for j := 1; j < len(slots); j++ {
					if slots[j] != slots[j-1] {
						nb++
					}
				}
				if 4*len(slots) > 12*nb {
					t.Errorf("%s block %d: direct, but %d slots for %d bounds", name, i, len(slots), nb)
				}
				searched += nb * searchBytes
			}
		}
		if flat := flatBytes(w); flat > searched {
			t.Errorf("%s: flat form %d bytes, %d with every integer block searched", name, flat, searched)
		}
	}
	if directs == 0 {
		t.Error("no direct block in any program")
	}
}

// TestReindexRefuses: the two tables the flat walk cannot hold are
// errors, from Reindex and so from the Compile that emitted them, not
// panics: more stages than a block's 16-bit stage index numbers, and an
// entry whose constraint is of a type the walk has no layout for. On
// either the program keeps the walk it had.
func TestReindexRefuses(t *testing.T) {
	sp := testSpec(t)
	p := compile(t, sp, "stock == GOOGL: fwd(1)", Options{})
	msg := spec.NewMessage(sp)
	msg.MustSet("stock", spec.StrVal("GOOGL"))
	want := p.Eval(msg, nil).Key()

	wide := *p
	wide.Stages = make([]*Table, math.MaxUint16+1)
	if err := wide.Reindex(); err == nil || !strings.Contains(err.Error(), "16-bit stage index") {
		t.Errorf("%d stages: Reindex = %v, want the stage-index error", len(wide.Stages), err)
	}

	type foreign struct{ match.Constraint }
	odd := *p
	odd.Stages = slices.Clone(p.Stages)
	st := *odd.Stages[len(odd.Stages)-1]
	st.Entries = append(slices.Clone(st.Entries), &Entry{In: st.Entries[0].In, Match: foreign{}, Out: 0})
	odd.Stages[len(odd.Stages)-1] = &st
	if err := odd.Reindex(); err == nil || !strings.Contains(err.Error(), "unknown constraint type") {
		t.Errorf("foreign constraint: Reindex = %v, want the constraint-type error", err)
	}
	if got := odd.Eval(msg, nil).Key(); got != want {
		t.Errorf("after the refused Reindex the program evaluates %s, want %s", got, want)
	}
}

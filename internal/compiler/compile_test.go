package compiler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/bdd"
	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/stats"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// The test spec splits fields across headers so header-absence paths
// (validity guards) get exercised; a decoded header always yields all of
// its fields.
const testSpecSrc = `
header ord_qty {
    shares : u32 @field;
    price : u32 @field;
}
header ord_sym {
    stock : str8 @field_exact;
    name : str16 @field;
}
`

func testSpec(t testing.TB) *spec.Spec {
	t.Helper()
	return spec.MustParse("test", testSpecSrc)
}

func compile(t testing.TB, sp *spec.Spec, src string, opts Options) *Program {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	p, err := Compile(sp, rules, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// TestPaperFigure6 checks the three-stage pipeline (Shares, Stock, Leaf)
// produced for the running example and its evaluation semantics. The
// figure draws shares before stock, which is declaration order, so the
// test compiles under bdd.SpecOrder; the canonical order would test the
// @field_exact stock first.
func TestPaperFigure6(t *testing.T) {
	sp := testSpec(t)
	p := compile(t, sp, `
shares < 100 and stock == GOOGL: fwd(1)
shares < 100 and stock == GOOGL: fwd(2)
shares >= 100 and stock == MSFT: fwd(3)
`, Options{BDD: bdd.Options{Order: bdd.SpecOrder}})

	// Stages: validity guards first, then shares then stock (spec
	// order), plus the leaf.
	var names []string
	for _, st := range p.Stages {
		names = append(names, st.Name())
	}
	want := []string{"valid(ord_qty)", "valid(ord_sym)", "ord_qty.shares", "ord_sym.stock"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("stage order = %v, want %v", names, want)
	}
	// Overlapping rules must merge into one multicast action fwd(1,2).
	eval := func(shares int64, stock string) string {
		m := spec.NewMessage(sp)
		m.MustSet("shares", spec.IntVal(shares))
		m.MustSet("stock", spec.StrVal(stock))
		return p.Eval(m, nil).Key()
	}
	if got := eval(50, "GOOGL"); got != "fwd(1,2)" {
		t.Errorf("GOOGL/50 = %s, want fwd(1,2)", got)
	}
	if got := eval(150, "MSFT"); got != "fwd(3)" {
		t.Errorf("MSFT/150 = %s, want fwd(3)", got)
	}
	if got := eval(150, "GOOGL"); got != "fwd()" {
		t.Errorf("GOOGL/150 = %s, want drop", got)
	}
	// One multicast group, on the {1,2} leaf.
	eg := p.Egress()
	if eg.Groups() != 1 {
		t.Errorf("groups = %d, want 1", eg.Groups())
	}
	for i, le := range p.Leaf {
		want := -1
		if fmt.Sprint(le.Actions.Ports) == "[1 2]" {
			want = 0
		}
		if got := eg.Group(i + 1); got != want {
			t.Errorf("leaf %s: group %d, want %d", le.Actions, got, want)
		}
	}
}

// TestEntriesBoundedQuadratically verifies the consequence of the
// paper's §V-D domain-specific reductions: paths through a field
// component correspond to disjoint value regions, so each In node emits
// at most 2k+1 entries for k predicates on the field (regions are
// delimited by the predicate constants), and total stage entries are at
// most |In| × (2k+1) — the "at most quadratic" bound.
func TestEntriesBoundedQuadratically(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		var b strings.Builder
		for i := 0; i < 12; i++ {
			fmt.Fprintf(&b, "shares > %d and shares < %d and price > %d: fwd(%d)\n",
				r.Intn(10), 10+r.Intn(10), r.Intn(10), r.Intn(5))
		}
		p := compile(t, sp, b.String(), Options{})
		for _, st := range p.Stages {
			k := len(st.Field.Preds)
			perIn := make(map[int32]int)
			for _, e := range st.Entries {
				perIn[e.In]++
			}
			for in, n := range perIn {
				if n > 2*k+1 {
					t.Errorf("trial %d stage %s state %d: %d entries > 2k+1 = %d",
						trial, st.Name(), in, n, 2*k+1)
				}
			}
			if len(st.Entries) > len(perIn)*(2*k+1) {
				t.Errorf("trial %d stage %s: %d entries exceed quadratic bound %d",
					trial, st.Name(), len(st.Entries), len(perIn)*(2*k+1))
			}
		}
	}
}

// TestEntriesPartitionDomain: for every stage and in-state, a present
// value reaches, through the first entry it matches or else the state's
// Defaults row, the out-node its own path through the state's field
// component reaches; it matches at most one entry (the rule sets stay
// under match.maxExclusions on every chain a later entry overlaps); and
// no entry goes where the state's Defaults row goes — the row takes its
// values. Over three hand-written rules, random rule sets, and the
// bench's ITCH (stateful too) and INT rule shapes.
func TestEntriesPartitionDomain(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(29))
	loads := map[string]*Program{
		"three": compile(t, sp, `
price > 10 and price < 30: fwd(1)
price > 20 or price == 5: fwd(2)
price != 7: fwd(3)
`, Options{}),
		"itch":          compileLines(t, formats.ITCH, benchITCHRules(r, false), Options{LastHop: true}),
		"itch-stateful": compileLines(t, formats.ITCH, benchITCHRules(r, true), Options{LastHop: true}),
		"int":           compileLines(t, formats.INT, benchINTRules(r, 1000), Options{LastHop: true}),
	}
	for i := 0; i < 20; i++ {
		p, err := Compile(sp, randomRules(r, sp, 1+r.Intn(12)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		loads[fmt.Sprintf("random-%d", i)] = p
	}
	for name, p := range loads {
		checkEntriesPartition(t, name, p)
	}

	// The rule reaches past the all-lo entry: of the price stage's three
	// paths only [11, 19] leads anywhere but the drop the other two share,
	// and it is the one entry stored.
	p := compile(t, sp, "price > 10 and price < 20: fwd(1)", Options{DisableValidityGuards: true})
	for _, st := range p.Stages {
		if st.Name() != "ord_qty.price" {
			continue
		}
		if len(st.Entries) != 1 || st.Entries[0].Match.Key() != "[11,19]" {
			t.Errorf("price stage stores %v, want the one entry [11,19]", st.Entries)
		}
	}
	checkEntriesPartition(t, "band", p)
}

// checkEntriesPartition is TestEntriesPartitionDomain's check of one
// program, probing each field at its predicates' constants and their
// neighbours, and at the ends of its domain.
func checkEntriesPartition(t *testing.T, name string, p *Program) {
	t.Helper()
	nodes := make(map[StateID]*bdd.Node)
	for _, n := range p.BDD.Reachable() {
		nodes[n.ID] = n
	}
	for _, st := range p.Stages {
		var probes []spec.Value
		if st.Field.Type() == spec.StringField {
			probes = append(probes, spec.StrVal(""), spec.StrVal("~"))
			for _, pr := range st.Field.Preds {
				c := pr.Const.Str
				probes = append(probes, spec.StrVal(c), spec.StrVal(c+"0"))
				if c != "" {
					probes = append(probes, spec.StrVal(c[:len(c)-1]))
				}
			}
		} else {
			probes = append(probes, spec.IntVal(math.MinInt64), spec.IntVal(math.MaxInt64))
			for _, pr := range st.Field.Preds {
				c := pr.Const.Int
				probes = append(probes, spec.IntVal(c-1), spec.IntVal(c), spec.IntVal(c+1))
			}
		}
		byState := make(map[StateID][]*Entry)
		for _, e := range st.Entries {
			byState[e.In] = append(byState[e.In], e)
			if e.Out == st.Defaults[e.In] {
				t.Errorf("%s: stage %s stores %s, which goes where the state's default goes", name, st.Name(), e)
			}
		}
		for in, entries := range byState {
			for _, v := range probes {
				// The value's own path through the component.
				n := nodes[in]
				for !n.IsTerminal() && n.Pred.FieldIdx == st.Field.Index {
					if subscription.Compare(v, n.Pred.Rel, n.Pred.Const) {
						n = n.Hi
					} else {
						n = n.Lo
					}
				}
				got, matched := st.Defaults[in], 0
				for _, e := range entries {
					if e.Match.Matches(v) {
						if matched == 0 {
							got = e.Out
						}
						matched++
					}
				}
				if matched > 1 {
					t.Errorf("%s: stage %s state %d value %v matched %d entries", name, st.Name(), in, v, matched)
				}
				if got != n.ID {
					t.Errorf("%s: stage %s state %d value %v goes to %d, its path to %d", name, st.Name(), in, v, got, n.ID)
				}
			}
		}
	}
}

func randomRules(r *rand.Rand, sp *spec.Spec, n int) []*subscription.Rule {
	p := subscription.NewParser(sp)
	stocks := []string{"GOOGL", "MSFT", "AAPL"}
	rels := []string{"==", "!=", "<", "<=", ">", ">="}
	var rules []*subscription.Rule
	for i := 0; i < n; i++ {
		var terms []string
		for _, f := range []string{"shares", "price"} {
			if r.Intn(2) == 0 {
				terms = append(terms, fmt.Sprintf("%s %s %d", f, rels[r.Intn(len(rels))], r.Intn(8)))
			}
		}
		if r.Intn(2) == 0 {
			terms = append(terms, fmt.Sprintf("stock == %s", stocks[r.Intn(len(stocks))]))
		}
		if len(terms) == 0 {
			terms = append(terms, fmt.Sprintf("price > %d", r.Intn(8)))
		}
		join := " and "
		if r.Intn(3) == 0 {
			join = " or "
		}
		src := fmt.Sprintf("%s: fwd(%d)", strings.Join(terms, join), r.Intn(6))
		rule, err := p.ParseRule(src, i)
		if err != nil {
			panic(err)
		}
		rules = append(rules, rule)
	}
	return rules
}

// TestProgramEquivalence: the compiled pipeline, the BDD, and brute-force
// rule evaluation agree on random workloads — including messages with
// absent fields (the lo-walk defaults).
func TestProgramEquivalence(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(17))
	stocks := []string{"GOOGL", "MSFT", "AAPL", "ZZZ"}
	for trial := 0; trial < 40; trial++ {
		rules := randomRules(r, sp, 1+r.Intn(10))
		for _, opts := range []Options{{}, {DisableExactOpt: true}, {DisableCompression: true}} {
			p, err := Compile(sp, rules, opts)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for i := 0; i < 50; i++ {
				m := spec.NewMessage(sp)
				if r.Intn(6) != 0 { // ord_qty header present or absent
					m.MustSet("shares", spec.IntVal(int64(r.Intn(10))))
					m.MustSet("price", spec.IntVal(int64(r.Intn(10))))
				}
				if r.Intn(6) != 0 { // ord_sym header present or absent
					m.MustSet("stock", spec.StrVal(stocks[r.Intn(len(stocks))]))
					m.MustSet("name", spec.StrVal("x"))
				}
				want := subscription.MatchActions(rules, m, nil).Key()
				got := p.Eval(m, nil).Key()
				if got != want {
					t.Fatalf("trial %d: pipeline mismatch on %s:\n got %s want %s\nprogram:\n%s",
						trial, m, got, want, p)
				}
			}
		}
	}
}

// TestStatefulLastHop: on a last-hop switch the aggregate gates
// forwarding and the leaf entries carry update directives; on a non-last-
// hop switch the stateful atom is erased (superset forwarding).
func TestStatefulLastHop(t *testing.T) {
	sp := testSpec(t)
	src := "stock == GOOGL and avg(price) > 60: fwd(1)"

	last := compile(t, sp, src, Options{LastHop: true})
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal("GOOGL"))
	m.MustSet("price", spec.IntVal(100))

	if got := last.Eval(m, nil).Key(); got != "fwd()" {
		t.Errorf("last hop, zero state: %s, want drop", got)
	}
	le := last.Lookup(m, nil)
	if le == nil || len(le.Updates) != 1 {
		t.Fatalf("expected update directive on matching stateless context, got %+v", le)
	}
	aggKey := le.Updates[0]
	st := subscription.MapState{aggKey: 61}
	if got := last.Eval(m, st).Key(); got != "fwd(1)" {
		t.Errorf("last hop, avg=61: %s, want fwd(1)", got)
	}
	// Non-matching stateless context must not update.
	m2 := spec.NewMessage(sp)
	m2.MustSet("stock", spec.StrVal("MSFT"))
	if le2 := last.Lookup(m2, nil); le2 != nil && len(le2.Updates) != 0 {
		t.Errorf("MSFT packet should not update GOOGL aggregate: %+v", le2)
	}

	up := compile(t, sp, src, Options{LastHop: false})
	if got := up.Eval(m, nil).Key(); got != "fwd(1)" {
		t.Errorf("upstream switch must forward superset: %s, want fwd(1)", got)
	}
	if regs := RegisterCount(up); regs != 0 {
		t.Errorf("upstream program allocated %d registers, want 0", regs)
	}
}

func stageByName(t *testing.T, p *Program, name string) *Table {
	t.Helper()
	for _, st := range p.Stages {
		if st.Name() == name {
			return st
		}
	}
	t.Fatalf("no stage %q in program:\n%s", name, p)
	return nil
}

// TestExactMatchExtraction: equality-only stages classify as SRAM exact
// tables; range stages with few constants compress; the ablation flag
// forces TCAM.
func TestExactMatchExtraction(t *testing.T) {
	sp := testSpec(t)
	p := compile(t, sp, `
stock == GOOGL: fwd(1)
stock == MSFT: fwd(2)
`, Options{})
	if st := stageByName(t, p, "ord_sym.stock"); st.Kind != ExactTable {
		t.Errorf("stock stage = %v, want exact", st.Kind)
	}
	if c := footprint(p); c.TCAMBytes != 0 {
		t.Errorf("exact program uses TCAM: %+v", c)
	}

	p2 := compile(t, sp, "price > 10 and price < 500: fwd(1)", Options{})
	st2 := stageByName(t, p2, "ord_qty.price")
	if st2.Kind != CompressedTable {
		t.Errorf("price stage = %v, want compressed", st2.Kind)
	}
	if st2.MapEntries != 2*2+1 {
		t.Errorf("map entries = %d, want 5", st2.MapEntries)
	}

	p3 := compile(t, sp, "price > 10 and price < 500: fwd(1)", Options{DisableCompression: true})
	if st3 := stageByName(t, p3, "ord_qty.price"); st3.Kind != TernaryTable {
		t.Errorf("uncompressed price stage = %v, want ternary", st3.Kind)
	}
	if footprint(p3).TCAMBytes == 0 {
		t.Error("ternary stage consumed no TCAM")
	}

	p4 := compile(t, sp, "stock == GOOGL: fwd(1)", Options{DisableExactOpt: true})
	if st4 := stageByName(t, p4, "ord_sym.stock"); st4.Kind != TernaryTable {
		t.Errorf("DisableExactOpt: %v, want ternary", st4.Kind)
	}
}

func TestResourcesSanity(t *testing.T) {
	sp := testSpec(t)
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "stock == S%02d and price > %d: fwd(%d)\n", i, i*10, i%32)
	}
	p := compile(t, sp, b.String(), Options{})
	c := footprint(p)
	if c.Entries != p.TotalEntries() {
		t.Errorf("Entries %d != TotalEntries %d", c.Entries, p.TotalEntries())
	}
	if c.Entries == 0 || c.SRAMBytes == 0 {
		t.Errorf("degenerate resources: %+v", c)
	}
	if c.SRAMBytes > SRAMBudgetBytes || c.TCAMBytes > TCAMBudgetBytes ||
		len(p.Stages)+1 > MaxPipelineStages || RegisterCount(p) > RegisterBudget {
		t.Errorf("100-rule program should fit the switch: %+v, %d stages", c, len(p.Stages)+1)
	}
}

// footprint sums CostOf over p's stage tables plus the leaf rows.
func footprint(p *Program) TableCost {
	c := TableCost{SRAMBytes: len(p.Leaf) * LeafEntryBytes, Entries: len(p.Leaf)}
	for _, t := range p.Stages {
		tc := CostOf(t)
		c.SRAMBytes += tc.SRAMBytes
		c.TCAMBytes += tc.TCAMBytes
		c.Entries += tc.Entries
	}
	return c
}

func TestStaticPipeline(t *testing.T) {
	sp := testSpec(t)
	st, err := GenerateStatic(sp, StaticOptions{})
	if err != nil {
		t.Fatalf("GenerateStatic: %v", err)
	}
	if len(st.StageFields) != 4 {
		t.Errorf("stage fields = %d, want 4", len(st.StageFields))
	}
	p := compile(t, sp, "price > 5 and avg(shares) > 3: fwd(1)", Options{LastHop: true})
	if err := st.Validate(p); err != nil {
		t.Errorf("Validate: %v", err)
	}
	other := spec.MustParse("other", "header h { x : u8 @field; }")
	p2, err := Compile(other, mustRules(t, other, "x > 1: fwd(1)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(p2); err == nil {
		t.Error("Validate accepted program for wrong spec")
	}

	empty := spec.MustParse("empty", "header h { x : u8; }")
	if _, err := GenerateStatic(empty, StaticOptions{}); err == nil {
		t.Error("GenerateStatic accepted spec with no subscribable fields")
	}
}

func mustRules(t *testing.T, sp *spec.Spec, src string) []*subscription.Rule {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestFieldOrderAblation: all three field orders compile and agree
// semantically (sizes may differ).
func TestFieldOrderAblation(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(23))
	rules := randomRules(r, sp, 15)
	var programs []*Program
	for _, ord := range []bdd.FieldOrder{bdd.CanonicalOrder, bdd.SpecOrder, bdd.ReverseSpecOrder} {
		p, err := Compile(sp, rules, Options{BDD: bdd.Options{Order: ord}})
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, p)
	}
	for i := 0; i < 60; i++ {
		m := spec.NewMessage(sp)
		m.MustSet("shares", spec.IntVal(int64(r.Intn(10))))
		m.MustSet("price", spec.IntVal(int64(r.Intn(10))))
		m.MustSet("stock", spec.StrVal([]string{"GOOGL", "MSFT", "AAPL"}[r.Intn(3)]))
		want := programs[0].Eval(m, nil).Key()
		for j, p := range programs[1:] {
			if got := p.Eval(m, nil).Key(); got != want {
				t.Fatalf("order %d disagrees on %s: %s vs %s", j+1, m, got, want)
			}
		}
	}
}

// TestCompileNodeCap: Compile honours bdd.Options.MaxNodes — the engine's
// cap — by failing with bdd.ErrTooLarge, and no panic escapes.
func TestCompileNodeCap(t *testing.T) {
	sp := testSpec(t)
	rules := randomRules(rand.New(rand.NewSource(3)), sp, 30)
	for _, limit := range []int{1, 10, 100} {
		if _, err := Compile(sp, rules, Options{BDD: bdd.Options{MaxNodes: limit}}); !errors.Is(err, bdd.ErrTooLarge) {
			t.Errorf("MaxNodes %d: err = %v, want bdd.ErrTooLarge", limit, err)
		}
	}
	if _, err := Compile(sp, rules, Options{BDD: bdd.Options{MaxNodes: 1 << 20}}); err != nil {
		t.Errorf("MaxNodes 1<<20: %v", err)
	}
}

func BenchmarkCompile500(b *testing.B) {
	sp := testSpec(b)
	r := rand.New(rand.NewSource(4))
	rules := randomRules(r, sp, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(sp, rules, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSiena measures the growth law of entries against rule
// count where rules predicate on disjoint fields — Siena-style ITCH
// filters of exactly 1, 2 and 3 predicates at 100, 200 and 400 filters —
// under the canonical field order and under declaration order, the
// ablation it replaced. Each row reports its entries, the reachable BDD
// nodes and their ratio (emitPaths multiplies what the diagram does not);
// the 400-filter row adds the least-squares slope of ln entries on ln
// filters over the three sizes, the exponent EXPERIMENTS.md quotes for
// Fig. 12a.
func BenchmarkCompileSiena(b *testing.B) {
	for _, ord := range []struct {
		name  string
		order bdd.FieldOrder
	}{{"canonical", bdd.CanonicalOrder}, {"declaration", bdd.SpecOrder}} {
		for preds := 1; preds <= 3; preds++ {
			var ns, es []float64
			for _, n := range []int{100, 200, 400} {
				b.Run(fmt.Sprintf("%s/preds%d/%d", ord.name, preds, n), func(b *testing.B) {
					rules, err := workload.SienaRules(workload.SienaConfig{
						Spec: formats.ITCH, Filters: n,
						MinPredicates: preds, MaxPredicates: preds, Seed: 1,
					}, 32)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					var p *Program
					for i := 0; i < b.N; i++ {
						if p, err = Compile(formats.ITCH, rules, Options{BDD: bdd.Options{Order: ord.order}}); err != nil {
							b.Fatal(err)
						}
					}
					entries, nodes := float64(p.TotalEntries()), float64(len(p.BDD.Reachable()))
					b.ReportMetric(entries, "entries")
					b.ReportMetric(nodes, "nodes")
					b.ReportMetric(entries/nodes, "entries/node")
					ns, es = append(ns, float64(n)), append(es, entries)
					if len(ns) == 3 {
						b.ReportMetric(stats.LogLogSlope(ns, es), "slope")
					}
				})
			}
		}
	}
}

// BenchmarkCompileINT1k compiles the pinned 1000-rule exact+range set
// (intRangeRules, the bench's int_range shape): two rule shapes on
// different fields, which compile as two parts of 8.6 k entries — as one
// diagram their merge is a cross product of 134 k (Options.OneDiagram),
// where BenchmarkCompile500 and the root package's Compile10k merge
// equality chains that never multiply. It builds as
// Compile does, NewIncremental and one Apply, so that it can also report
// engine-MB: the memory the engine retains after the compile
// (Incremental.CacheBytes).
func BenchmarkCompileINT1k(b *testing.B) {
	rules := intRangeRules(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := NewIncremental(formats.INT, Options{})
		if err != nil {
			b.Fatal(err)
		}
		up, err := inc.Apply(rules, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(up.Program.TotalEntries()), "entries")
			b.ReportMetric(float64(inc.CacheBytes())/1e6, "engine-MB")
		}
	}
}

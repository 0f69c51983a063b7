package fitcheck_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camus/internal/analysis/fitcheck"
	"camus/internal/analysis/report"
	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/match"
	"camus/internal/spec"
	"camus/internal/subscription"
)

var update = flag.Bool("update", false, "rewrite golden files")

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

func compileRules(t testing.TB, sp *spec.Spec, src string, opts compiler.Options) *compiler.Program {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	p, err := compiler.Compile(sp, rules, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// corpusCase is one known-bad corpus file: a base rule set, a pipeline
// budget, and the mutations that overflow exactly one fit dimension.
type corpusCase struct {
	Budget             fitcheck.Budget     `json:"budget"`
	Rules              string              `json:"rules"`
	LastHop            bool                `json:"last_hop"`
	DisableCompression bool                `json:"disable_compression"`
	Mutations          []fitcheck.Mutation `json:"mutations"`
}

func loadCorpus(t *testing.T, path string) corpusCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	var c corpusCase
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("parse corpus %s: %v", path, err)
	}
	return c
}

func (c corpusCase) compile(t *testing.T) *compiler.Program {
	t.Helper()
	return compileRules(t, testSpec(t), c.Rules, compiler.Options{
		LastHop:            c.LastHop,
		DisableCompression: c.DisableCompression,
	})
}

// TestCorpusGoldens: every seeded overflow program yields exactly the
// golden findings; the unmutated base program is clean under the same
// budget (so the mutation, not the base, is what overflows).
func TestCorpusGoldens(t *testing.T) {
	files, err := filepath.Glob("testdata/corpus/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			c := loadCorpus(t, file)

			base := c.compile(t)
			if l := fitcheck.Analyze(base, fitcheck.Options{Budget: c.Budget, File: name}); !l.Fits() || len(l.Findings) != 0 {
				t.Fatalf("base program not clean under corpus budget: %+v", l.Findings)
			}

			p := c.compile(t)
			for _, m := range c.Mutations {
				if err := m.Apply(p); err != nil {
					t.Fatalf("apply %+v: %v", m, err)
				}
			}
			l := fitcheck.Analyze(p, fitcheck.Options{Budget: c.Budget, File: name})
			rep := report.Report{Tool: fitcheck.Tool, File: name, Findings: l.Findings}
			got := rep.JSON() + "\n"

			golden := strings.TrimSuffix(file, ".json") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestSeededFindingsDetected: each corpus entry is named after the fit
// dimension it overflows; the analyzer must report that kind.
func TestSeededFindingsDetected(t *testing.T) {
	kinds := map[string]report.Kind{
		"stage-sram":    fitcheck.KindSRAM,
		"stage-tcam":    fitcheck.KindTCAM,
		"key-width":     fitcheck.KindKeyWidth,
		"mcast":         fitcheck.KindMcast,
		"registers":     fitcheck.KindRegs,
		"stages":        fitcheck.KindStages,
		"recirculation": fitcheck.KindRecirc,
	}
	files, _ := filepath.Glob("testdata/corpus/*.json")
	if len(files) != len(kinds) {
		t.Fatalf("corpus has %d entries, want one per dimension (%d)", len(files), len(kinds))
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			want, ok := kinds[name]
			if !ok {
				t.Fatalf("corpus entry %q does not name a fit dimension", name)
			}
			c := loadCorpus(t, file)
			p := c.compile(t)
			for _, m := range c.Mutations {
				if err := m.Apply(p); err != nil {
					t.Fatalf("apply: %v", err)
				}
			}
			l := fitcheck.Analyze(p, fitcheck.Options{Budget: c.Budget, File: name})
			found := false
			for _, f := range l.Findings {
				if f.Kind == want {
					found = true
				}
			}
			if !found {
				t.Errorf("seeded %s overflow not detected; findings: %+v", want, l.Findings)
			}
			if want == fitcheck.KindRecirc {
				if !l.Fits() {
					t.Errorf("recirculation corpus must still fit (warning only); findings: %+v", l.Findings)
				}
			} else if l.Fits() {
				t.Errorf("seeded %s overflow still reports Fits()", want)
			}
		})
	}
}

// TestShippedRulesClean: the shipped itch workload certifies clean
// under the default Tofino-class budget — the `camusc fit` acceptance
// baseline.
func TestShippedRulesClean(t *testing.T) {
	specSrc, err := os.ReadFile("../../../cmd/camusc/testdata/itch.spec")
	if err != nil {
		t.Fatalf("read itch.spec: %v", err)
	}
	rulesSrc, err := os.ReadFile("../../../cmd/camusc/testdata/itch.rules")
	if err != nil {
		t.Fatalf("read itch.rules: %v", err)
	}
	sp, err := spec.Parse("itch.spec", string(specSrc))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	p := compileRules(t, sp, string(rulesSrc), compiler.Options{LastHop: true})
	l := fitcheck.Analyze(p, fitcheck.Options{File: "itch.rules"})
	if len(l.Findings) != 0 {
		t.Fatalf("itch.rules must certify clean: %+v", l.Findings)
	}
	if l.Passes != 1 {
		t.Errorf("itch.rules needs %d passes, want 1", l.Passes)
	}
	if h := l.MinHeadroom(); h <= 0 {
		t.Errorf("itch.rules min headroom %d, want > 0", h)
	}
	// The totals are the Table I columns and camusc's summary line.
	if l.Entries() != p.TotalEntries() {
		t.Errorf("Entries() = %d, TotalEntries() = %d", l.Entries(), p.TotalEntries())
	}
	if got, want := l.String(), "entries=50 sram=0.00% tcam=0.03% mcast=8 stages=6 regs=1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// cloneWorst appends n copies of table idx's worst-case entry — the
// exact increment MaxEntryCost charges — to the real program. Only
// exact, ternary, and leaf tables admit a faithful worst-case clone
// (a compressed add may or may not mint a value-map range).
func cloneWorst(t *testing.T, p *compiler.Program, l *fitcheck.Layout, idx, n int) bool {
	t.Helper()
	tf := l.Tables[idx]
	if tf.Kind == "leaf" {
		for i := 0; i < n; i++ {
			p.Leaf = append(p.Leaf, &compiler.LeafEntry{In: compiler.StateID(1<<20 + i)})
		}
		return true
	}
	var tab *compiler.Table
	for _, st := range p.Stages {
		if st.Name() == tf.Name {
			tab = st
		}
	}
	if tab == nil {
		t.Fatalf("no stage %q", tf.Name)
	}
	switch tf.Kind {
	case "exact":
		in := compiler.StateID(0)
		if len(tab.Entries) > 0 {
			in = tab.Entries[0].In
		}
		for i := 0; i < n; i++ {
			tab.Entries = append(tab.Entries, &compiler.Entry{
				In: in, Match: &match.IntConstraint{Lo: int64(2e9 + i), Hi: int64(2e9 + i)}, Out: in,
			})
		}
		return true
	case "ternary":
		_, bits := tableBits(tab)
		var worst *compiler.Entry
		worstN := 0
		for _, e := range tab.Entries {
			if c := e.Match.TCAMEntries(bits); worst == nil || c > worstN {
				worst, worstN = e, c
			}
		}
		if worst == nil {
			return false // empty ternary: MaxEntryCost's 1-row charge needs no clone source
		}
		for i := 0; i < n; i++ {
			tab.Entries = append(tab.Entries, &compiler.Entry{In: worst.In, Match: worst.Match, Out: worst.Out})
		}
		return true
	}
	return false
}

func tableBits(t *compiler.Table) (int, int) {
	fieldBytes := 4
	switch t.Field.Ref.Kind {
	case subscription.PacketRef:
		fieldBytes = t.Field.Ref.Field.Bytes()
	case subscription.ValidityRef:
		fieldBytes = 1
	}
	bits := fieldBytes * 8
	if t.Field.Ref.Kind == subscription.PacketRef {
		bits = t.Field.Ref.Field.Bits
	}
	return fieldBytes, bits
}

// checkHeadroomSound asserts the soundness property on one program:
// for every table, adding headroom worst-case entries keeps the fit
// verdict, and adding headroom+1 breaks it.
func checkHeadroomSound(t *testing.T, mk func() *compiler.Program, b fitcheck.Budget) {
	t.Helper()
	l := fitcheck.Analyze(mk(), fitcheck.Options{Budget: b})
	if !l.Fits() {
		t.Fatal("soundness base program must fit")
	}
	for idx, tf := range l.Tables {
		h := tf.Headroom
		if h > 100000 {
			continue // effectively unbounded; +1 is not realizable
		}
		at := func(n int) *fitcheck.Layout {
			p := mk()
			if !cloneWorst(t, p, l, idx, n) {
				return nil
			}
			return fitcheck.Analyze(p, fitcheck.Options{Budget: b, SkipHeadroom: true})
		}
		if la := at(h); la != nil && !la.Fits() {
			t.Errorf("table %s: adding headroom=%d entries flipped the verdict: %+v", tf.Name, h, la.Findings)
		}
		if la := at(h + 1); la != nil && la.Fits() {
			t.Errorf("table %s: adding headroom+1=%d entries did not flip the verdict", tf.Name, h+1)
		}
	}
}

// TestHeadroomSoundnessCompiled: the property holds on a real compiled
// program under a tight budget.
func TestHeadroomSoundnessCompiled(t *testing.T) {
	b := fitcheck.Budget{
		Stages: 6, StageSRAMBytes: 4096, StageTCAMBytes: 1024,
		StageKeyBits: 512, MaxTableSplit: 3,
		MulticastGroups: 8, Registers: 4, RecircPasses: 1,
	}
	mk := func() *compiler.Program {
		return compileRules(t, testSpec(t),
			"shares < 100 and stock == GOOGL: fwd(1)\nprice > 10 and price < 90: fwd(2)",
			compiler.Options{DisableCompression: true})
	}
	checkHeadroomSound(t, mk, b)
}

// synthProgram builds a random program of exact/ternary tables plus a
// leaf, directly from the exported compiler structs.
func synthProgram(rng *rand.Rand) *compiler.Program {
	sp := spec.MustParse("synth", testSpecSrc)
	nTables := 1 + rng.Intn(4)
	p := &compiler.Program{Spec: sp, Parts: []compiler.Part{{}}}
	for i := 0; i < nTables; i++ {
		f := &spec.Field{Header: "h", Name: fmt.Sprintf("f%d", i), Type: spec.IntField, Bits: 32}
		tab := &compiler.Table{
			Field:    &bdd.FieldVar{Ref: subscription.FieldRef{Kind: subscription.PacketRef, Field: f}},
			Defaults: map[compiler.StateID]compiler.StateID{},
		}
		if rng.Intn(2) == 0 {
			tab.Kind = compiler.ExactTable
			for j := 0; j < rng.Intn(200); j++ {
				tab.Entries = append(tab.Entries, &compiler.Entry{
					In: 1, Match: &match.IntConstraint{Lo: int64(j), Hi: int64(j)}, Out: 2,
				})
			}
		} else {
			tab.Kind = compiler.TernaryTable
			for j := 0; j < rng.Intn(12); j++ {
				lo := rng.Int63n(1000)
				tab.Entries = append(tab.Entries, &compiler.Entry{
					In: 1, Match: &match.IntConstraint{Lo: lo, Hi: lo + rng.Int63n(1<<20)}, Out: 2,
				})
			}
		}
		p.Stages = append(p.Stages, tab)
	}
	for j := 0; j < rng.Intn(300); j++ {
		p.Leaf = append(p.Leaf, &compiler.LeafEntry{In: compiler.StateID(j)})
	}
	return p
}

// TestHeadroomSoundnessSynth: the property holds across randomly
// synthesized tables and randomly tightened budgets.
func TestHeadroomSoundnessSynth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		b := fitcheck.Budget{
			Stages:          2 + rng.Intn(6),
			StageSRAMBytes:  512 + rng.Intn(8192),
			StageTCAMBytes:  256 + rng.Intn(4096),
			StageKeyBits:    512,
			MaxTableSplit:   1 + rng.Intn(4),
			MulticastGroups: 8,
			Registers:       4,
			RecircPasses:    rng.Intn(2),
		}
		mk := func() *compiler.Program { return synthProgram(rand.New(rand.NewSource(seed))) }
		l := fitcheck.Analyze(mk(), fitcheck.Options{Budget: b})
		if !l.Fits() {
			continue // property is about fitting programs; overflowing ones pin headroom to 0
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkHeadroomSound(t, mk, b)
		})
	}
}

// TestZeroHeadroomOnOverflow: a program that already overflows reports
// zero headroom everywhere.
func TestZeroHeadroomOnOverflow(t *testing.T) {
	c := loadCorpus(t, "testdata/corpus/stage-sram.json")
	p := c.compile(t)
	for _, m := range c.Mutations {
		if err := m.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	l := fitcheck.Analyze(p, fitcheck.Options{Budget: c.Budget})
	if l.Fits() {
		t.Fatal("corpus program must overflow")
	}
	for _, tf := range l.Tables {
		if tf.Headroom != 0 {
			t.Errorf("table %s: headroom %d on an overflowing program, want 0", tf.Name, tf.Headroom)
		}
	}
}

// TestModelAdmit: the admission oracle admits deltas within headroom,
// rejects beyond it, and caches layouts per program pointer.
func TestModelAdmit(t *testing.T) {
	b := fitcheck.Budget{
		Stages: 6, StageSRAMBytes: 4096, StageTCAMBytes: 1024,
		StageKeyBits: 512, MaxTableSplit: 3,
		MulticastGroups: 8, Registers: 4, RecircPasses: 1,
	}
	m := fitcheck.NewModelWith(b)
	p := compileRules(t, testSpec(t), "shares < 100 and stock == GOOGL: fwd(1)", compiler.Options{})

	if err := m.Admit(nil, 1000); err != nil {
		t.Fatalf("nil program must admit: %v", err)
	}
	if err := m.Admit(p, 1); err != nil {
		t.Fatalf("small delta rejected: %v", err)
	}
	h := m.Layout(p).MinHeadroom()
	if h <= 0 {
		t.Fatalf("headroom %d, want > 0", h)
	}
	if err := m.Admit(p, h+1); err == nil {
		t.Fatal("oversized delta admitted")
	} else if !strings.Contains(err.Error(), "headroom") {
		t.Fatalf("unexpected error: %v", err)
	}
	if m.Layout(p) != m.Layout(p) {
		t.Error("layout not cached per program pointer")
	}

	// An already-overflowing installed program rejects any delta.
	c := loadCorpus(t, "testdata/corpus/stage-sram.json")
	bad := c.compile(t)
	for _, mu := range c.Mutations {
		if err := mu.Apply(bad); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Admit(bad, 0); err == nil {
		t.Fatal("overflowing program admitted a delta")
	}
}

// TestEntryEstimate: the static per-filter bound counts atoms across
// the boolean structure plus guard and leaf.
func TestEntryEstimate(t *testing.T) {
	sp := testSpec(t)
	e, err := subscription.NewParser(sp).ParseFilter("shares < 100 and (stock == GOOGL or stock == MSFT)")
	if err != nil {
		t.Fatal(err)
	}
	if got := fitcheck.EntryEstimate(e); got != 5 {
		t.Errorf("EntryEstimate = %d, want 5 (3 atoms + guard + leaf)", got)
	}
}

// TestRecirculationPassFits pins the verdict camusc compile, Table I and
// Fig. 9 print under the default budget: a program whose placement
// spills into the budgeted recirculation pass fits with a warning, even
// when its TCAM footprint exceeds the pipe-wide budget (each pass brings
// fresh per-stage banks); a program past the last pass does not fit.
func TestRecirculationPassFits(t *testing.T) {
	sp := spec.MustParse("wide", `
header w {
    a : u32 @field;
    b : u32 @field;
    c : u32 @field;
    d : u32 @field;
    e : u32 @field;
    f : u32 @field;
}
`)
	p := compileRules(t, sp, "a > 1 and b > 1 and c > 1 and d > 1 and e > 1 and f > 1: fwd(1)", compiler.Options{})
	var packet []int
	for i, st := range p.Stages {
		if st.Field.Ref.Kind == subscription.PacketRef {
			packet = append(packet, i)
		}
	}
	if len(packet) != 6 {
		t.Fatalf("want 6 packet-field stages, got %d", len(packet))
	}
	// 140 worst-case 32-bit ranges fill 4 of a stage's 64 KiB TCAM banks.
	inflate := func(stages []int) {
		for _, i := range stages {
			// A single range compiles to a compressed table; the
			// inflated one is charged as the ternary table it becomes.
			p.Stages[i].Kind = compiler.TernaryTable
			if err := (fitcheck.Mutation{Op: "inflate-ternary", Stage: i, N: 140}).Apply(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	kinds := func(l *fitcheck.Layout) map[report.Kind]report.Severity {
		m := make(map[report.Kind]report.Severity)
		for _, f := range l.Findings {
			m[f.Kind] = f.Severity
		}
		return m
	}

	inflate(packet[:4])
	l := fitcheck.Analyze(p, fitcheck.Options{SkipHeadroom: true})
	if l.Passes != 2 || !l.Fits() || kinds(l)[fitcheck.KindRecirc] != report.SevWarning {
		t.Errorf("one recirculation pass: passes=%d fits=%v findings=%+v, want 2 passes, a recirculation warning, fits",
			l.Passes, l.Fits(), l.Findings)
	}
	if l.TCAMPct() <= 100 {
		t.Errorf("tcam=%.2f%%, want above the pipe-wide budget", l.TCAMPct())
	}

	inflate(packet[4:])
	l = fitcheck.Analyze(p, fitcheck.Options{SkipHeadroom: true})
	if l.Fits() || kinds(l)[fitcheck.KindStages] != report.SevError {
		t.Errorf("past the last pass: fits=%v findings=%+v, want a stage-count error", l.Fits(), l.Findings)
	}
}

package prove_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"camus/internal/analysis/corrupt"
	"camus/internal/analysis/prove"
	"camus/internal/analysis/replay"
	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// The external test package deliberately imports the compiler: the
// prover itself must not (depguard_test.go), but its tests exercise the
// real compile → export → prove path.

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

func compileRules(t testing.TB, sp *spec.Spec, src string, opts compiler.Options) (*compiler.Program, []*subscription.Rule) {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	p, err := compiler.Compile(sp, rules, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p, rules
}

func proveProgram(t testing.TB, p *compiler.Program, rules []*subscription.Rule, opts prove.Options) *prove.Result {
	t.Helper()
	ir, err := p.ProveIR()
	if err != nil {
		t.Fatalf("ProveIR: %v", err)
	}
	res, err := prove.Check(ir, rules, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

// TestProveCleanPrograms: correctly compiled programs certify clean,
// across filter shapes (ranges, exact strings, prefixes, negation,
// disjunction, multi-header, stateful) and both last-hop settings.
func TestProveCleanPrograms(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		lastHop bool
	}{
		{"fig6", "shares < 100 and stock == GOOGL: fwd(1)\nshares < 100 and stock == GOOGL: fwd(2)\nshares >= 100 and stock == MSFT: fwd(3)", false},
		{"range-overlap", "price > 10 and price < 50: fwd(1)\nprice >= 40: fwd(2)\nprice == 45: fwd(3)", false},
		{"prefix", "name prefix GO: fwd(1)\nname == GOOGL: fwd(2)", false},
		{"negation", "not (shares < 100): fwd(1)\nnot (stock == MSFT) and price > 5: fwd(2)", false},
		{"disjunction", "shares < 10 or shares > 90: fwd(1)\nstock == A or stock == B: fwd(2)", false},
		{"cross-header", "shares > 10 and name == widget: fwd(1)\nprice < 5: fwd(2)", false},
		{"ne", "stock != GOOGL: fwd(1)\nshares != 0: fwd(2)", false},
		{"stateful-upstream", "stock == GOOGL and avg(price) > 60: fwd(1)", false},
		{"stateful-lasthop", "stock == GOOGL and avg(price) > 60: fwd(1)\nstock == GOOGL: fwd(2)", true},
		{"empty", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec(t)
			p, rules := compileRules(t, sp, tc.src, compiler.Options{LastHop: tc.lastHop})
			res := proveProgram(t, p, rules, prove.Options{LastHop: tc.lastHop})
			if !res.Ok() {
				t.Fatalf("clean program got findings: %+v (overflow=%v)", res.Findings, res.Overflowed)
			}
			if res.Paths == 0 && tc.src != "" {
				t.Error("no symbolic paths explored")
			}
		})
	}
}

// TestProveOptionMismatch: compiling for an upstream switch but proving
// against last-hop semantics (or vice versa) is itself a divergence the
// prover must catch — stateful rules forward supersets upstream.
func TestProveOptionMismatch(t *testing.T) {
	sp := testSpec(t)
	src := "stock == GOOGL and avg(price) > 60: fwd(1)"
	p, rules := compileRules(t, sp, src, compiler.Options{LastHop: false})
	res := proveProgram(t, p, rules, prove.Options{LastHop: true})
	if res.Ok() {
		t.Fatal("upstream-compiled program proved clean under last-hop semantics")
	}
}

// resolveOp turns an adaptive corpus op into a concrete mutation by
// scanning the compiled program, so corpus files survive compiler
// layout changes.
func resolveOp(t *testing.T, p *compiler.Program, op string) corrupt.Mutation {
	t.Helper()
	switch op {
	case "add-leaf-port":
		if len(p.Leaf) == 0 {
			t.Fatal("program has no leaves")
		}
		return corrupt.Mutation{Op: op, Leaf: 0, Port: 99}
	case "remove-leaf-port":
		for i, le := range p.Leaf {
			if len(le.Actions.Ports) > 0 {
				return corrupt.Mutation{Op: op, Leaf: i, Port: le.Actions.Ports[0]}
			}
		}
		t.Fatal("no leaf forwards anywhere")
	case "redirect-entry":
		// Redirect a hit entry onto its in-state's miss path: the matched
		// value now behaves like a miss.
		for si, st := range p.Stages {
			for ei, e := range st.Entries {
				if d, ok := st.Defaults[e.In]; ok && d != e.Out {
					return corrupt.Mutation{Op: op, Stage: si, Entry: ei, Out: d}
				}
			}
		}
		t.Fatal("no redirectable entry")
	case "drop-update":
		// Prefer a pure update leaf (no forwarding): its paths include the
		// statelessly reachable "rest-of-filter matches, stateful predicate
		// undecidable" region, so the divergence replays on the wire.
		// Leaves that both forward and update sit behind a true stateful
		// branch and yield only register-dependent counterexamples.
		best := -1
		for i, le := range p.Leaf {
			if len(le.Updates) == 0 {
				continue
			}
			if best < 0 {
				best = i
			}
			if len(le.Actions.Ports) == 0 {
				return corrupt.Mutation{Op: op, Leaf: i, Key: le.Updates[0]}
			}
		}
		if best >= 0 {
			return corrupt.Mutation{Op: op, Leaf: best, Key: p.Leaf[best].Updates[0]}
		}
		t.Fatal("no leaf updates any register")
	case "add-update":
		// Same reachability concern as drop-update: seed the spurious
		// update on a leaf without updates (typically the drop leaf),
		// which non-matching packets reach with no register involved.
		for i, le := range p.Leaf {
			if len(le.Updates) == 0 {
				return corrupt.Mutation{Op: op, Leaf: i, Key: "avg(ord_qty.shares)"}
			}
		}
		if len(p.Leaf) == 0 {
			t.Fatal("program has no leaves")
		}
		return corrupt.Mutation{Op: op, Leaf: 0, Key: "avg(ord_qty.shares)"}
	default:
		t.Fatalf("unknown corpus op %q", op)
	}
	return corrupt.Mutation{}
}

type corpusEntry struct {
	Name    string   `json:"name"`
	Rules   string   `json:"rules"`
	LastHop bool     `json:"lastHop"`
	Ops     []string `json:"ops"`
	Expect  []string `json:"expect"`
}

func loadCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	var out []corpusEntry
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var e corpusEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, e)
	}
	return out
}

// TestKnownBadCorpus is the golden regression over seeded miscompiled
// programs: every corpus program must yield a confirmed counterexample
// of the expected kind, and every stateless counterexample must
// reproduce the divergence on the real pipeline.Switch via replay.
func TestKnownBadCorpus(t *testing.T) {
	for _, e := range loadCorpus(t) {
		t.Run(e.Name, func(t *testing.T) {
			sp := testSpec(t)
			p, rules := compileRules(t, sp, e.Rules, compiler.Options{LastHop: e.LastHop})
			for _, op := range e.Ops {
				m := resolveOp(t, p, op)
				if err := m.Apply(p); err != nil {
					t.Fatalf("mutation %+v: %v", m, err)
				}
			}
			opts := prove.Options{LastHop: e.LastHop}
			res := proveProgram(t, p, rules, opts)
			if len(res.Findings) == 0 {
				t.Fatal("corrupted program proved clean")
			}
			kinds := map[string]bool{}
			for _, f := range res.Findings {
				kinds[f.Kind] = true
			}
			for _, k := range e.Expect {
				if !kinds[k] {
					t.Errorf("missing expected finding kind %q, got %+v", k, res.Findings)
				}
			}
			replayed := 0
			for _, f := range res.Findings {
				if f.Cex == nil || !f.Cex.Stateless() {
					continue
				}
				out, err := replay.Confirm(sp, p, rules, f.Cex, opts)
				if err != nil {
					t.Fatalf("replay %s: %v", f.Kind, err)
				}
				if !out.Diverges() {
					t.Errorf("%s counterexample does not reproduce on pipeline.Switch: want %s/%v got %s/%v",
						f.Kind, out.Want, out.WantUpdates, out.Got, out.GotUpdates)
				}
				replayed++
			}
			if replayed == 0 {
				t.Error("no stateless counterexample replayed through the pipeline")
			}
		})
	}
}

// TestCounterexampleConcrete: divergence counterexamples evaluate
// differently on the prover's two concrete evaluators, and their Want
// matches the rule-set ground truth.
func TestCounterexampleConcrete(t *testing.T) {
	sp := testSpec(t)
	p, rules := compileRules(t, sp, "shares < 100 and stock == GOOGL: fwd(1)", compiler.Options{})
	if err := (corrupt.Mutation{Op: "remove-leaf-port", Leaf: 0, Port: 1}).Apply(p); err != nil {
		// Leaf 0 may not be the fwd(1) leaf; find it.
		for i, le := range p.Leaf {
			if len(le.Actions.Ports) > 0 {
				if err := (corrupt.Mutation{Op: "remove-leaf-port", Leaf: i, Port: le.Actions.Ports[0]}).Apply(p); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	res := proveProgram(t, p, rules, prove.Options{})
	if len(res.Findings) == 0 {
		t.Fatal("no findings")
	}
	f := res.Findings[0]
	if f.Kind != prove.KindMissingAction || f.Cex == nil {
		t.Fatalf("finding = %+v, want missing-action with counterexample", f)
	}
	want, _, err := prove.EvalRules(rules, prove.Options{}, f.Cex)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(f.Want) {
		t.Errorf("finding Want %s disagrees with ground truth %s", f.Want, want)
	}
	if f.Want.Equal(f.Got) {
		t.Error("counterexample does not diverge")
	}
	// The report envelope renders the counterexample.
	rep := res.Report("test.rules", rules, nil)
	if rep.Tool != "camusc-prove" || !rep.HasErrors() {
		t.Errorf("report: %+v", rep)
	}
	if rep.Findings[0].Counterexample == nil {
		t.Error("report finding lost its counterexample")
	}
}

// TestGroupMismatch: a multi-port leaf whose multicast group does not
// realize its ports is a structural finding.
func TestGroupMismatch(t *testing.T) {
	sp := testSpec(t)
	p, rules := compileRules(t, sp,
		"stock == GOOGL: fwd(1)\nstock == GOOGL: fwd(2)", compiler.Options{})
	ir, err := p.ProveIR()
	if err != nil {
		t.Fatal(err)
	}
	broke := false
	for _, g := range ir.Groups {
		if len(g) == 2 {
			g[1] = 77
			broke = true
		}
	}
	if !broke {
		t.Fatal("expected a two-port multicast group")
	}
	res, err := prove.Check(ir, rules, prove.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range res.Findings {
		if f.Kind == prove.KindGroupMismatch {
			found = true
		}
	}
	if !found {
		t.Fatalf("no group-mismatch finding: %+v", res.Findings)
	}
}

// TestReplayRejectsStateful: register-dependent counterexamples cannot
// be serialized onto the wire.
func TestReplayRejectsStateful(t *testing.T) {
	sp := testSpec(t)
	p, rules := compileRules(t, sp, "stock == GOOGL: fwd(1)", compiler.Options{})
	cex := &prove.Assignment{
		Headers: map[string]bool{"ord_sym": true},
		State:   map[string]int64{"avg(ord_qty.price)": 61},
	}
	if _, err := replay.Confirm(sp, p, rules, cex, prove.Options{}); err == nil {
		t.Fatal("stateful counterexample replayed")
	}
}

// TestEvalAgainstCompiled cross-validates the prover's concrete IR
// evaluator against the compiled program on a value sweep.
func TestEvalAgainstCompiled(t *testing.T) {
	sp := testSpec(t)
	src := "shares < 100 and stock == GOOGL: fwd(1)\nshares >= 100 and stock == MSFT: fwd(3)\nprice > 50: fwd(2)"
	p, _ := compileRules(t, sp, src, compiler.Options{})
	ir, err := p.ProveIR()
	if err != nil {
		t.Fatal(err)
	}
	for _, shares := range []int64{0, 99, 100, 101} {
		for _, price := range []int64{0, 50, 51} {
			for _, stock := range []string{"GOOGL", "MSFT", "X"} {
				m := spec.NewMessage(sp)
				m.MustSet("shares", spec.IntVal(shares))
				m.MustSet("price", spec.IntVal(price))
				m.MustSet("stock", spec.StrVal(stock))
				a := &prove.Assignment{
					Headers: map[string]bool{"ord_qty": true, "ord_sym": true},
					Fields: map[string]spec.Value{
						"ord_qty.shares": spec.IntVal(shares),
						"ord_qty.price":  spec.IntVal(price),
						"ord_sym.stock":  spec.StrVal(stock),
					},
				}
				wantSet := p.Eval(m, nil)
				gotSet, _ := ir.Eval(a)
				if !wantSet.Equal(gotSet) {
					t.Fatalf("shares=%d price=%d stock=%s: compiled %s, IR %s",
						shares, price, stock, wantSet, gotSet)
				}
			}
		}
	}
}

func ExampleCheck() {
	sp := spec.MustParse("test", testSpecSrc)
	rules, _ := subscription.NewParser(sp).ParseRules("shares < 100 and stock == GOOGL: fwd(1)")
	p, _ := compiler.Compile(sp, rules, compiler.Options{})
	ir, _ := p.ProveIR()
	res, _ := prove.Check(ir, rules, prove.Options{})
	fmt.Println(res.Ok())
	// Output: true
}

// TestProveBudgets trips each symbolic budget: MaxPaths at 1 on the
// shipped itch.rules, MaxContexts at 1 on a leaf whose two contributors
// overlap, so refining by the first one's negation leaves two cubes.
// Each run reports exactly one analysis-overflow and no divergence; at
// the default budgets both programs prove clean.
func TestProveBudgets(t *testing.T) {
	specSrc, err := os.ReadFile("../../../cmd/camusc/testdata/itch.spec")
	if err != nil {
		t.Fatal(err)
	}
	rulesSrc, err := os.ReadFile("../../../cmd/camusc/testdata/itch.rules")
	if err != nil {
		t.Fatal(err)
	}
	itch, err := spec.Parse("itch.spec", string(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sp   *spec.Spec
		src  string
		opts prove.Options
	}{
		{"MaxPaths", itch, string(rulesSrc), prove.Options{LastHop: true, MaxPaths: 1}},
		{"MaxContexts", testSpec(t), "price > 10 and shares > 5: fwd(1)\nprice > 0: fwd(1)", prove.Options{MaxContexts: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, rules := compileRules(t, tc.sp, tc.src, compiler.Options{LastHop: tc.opts.LastHop})
			if res := proveProgram(t, p, rules, prove.Options{LastHop: tc.opts.LastHop}); !res.Ok() {
				t.Fatalf("default budgets: %+v", res.Findings)
			}
			res := proveProgram(t, p, rules, tc.opts)
			if !res.Overflowed {
				t.Error("Overflowed not set")
			}
			if len(res.Findings) != 1 || res.Findings[0].Kind != prove.KindOverflow {
				t.Errorf("findings = %+v, want exactly one %s", res.Findings, prove.KindOverflow)
			}
		})
	}
}

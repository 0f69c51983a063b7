package netsim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"camus/internal/analysis/corrupt"
	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestProverCounterexampleReplaysOnNetwork closes the loop between the
// symbolic prover and the simulated network: seed a known-bad program
// on one ToR (a compiler-defect mutation from internal/analysis/
// corrupt), let the prover produce a concrete counterexample packet,
// then publish exactly that packet through netsim.Sim. The corrupted
// network's delivery set must diverge from the independent AST
// evaluator's prediction — and a reference network running the
// uncorrupted deployment must agree with the AST. The whole outcome is
// pinned by a golden file (testdata/replay_known_bad.golden).
func TestProverCounterexampleReplaysOnNetwork(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{filter(t, "stock == GOOGL and price > 50")}
	subs[1] = []subscription.Expr{filter(t, "stock == MSFT")}
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	ref, err := controller.Deploy(net, itchSpec, subs, opts)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := controller.Deploy(net, itchSpec, subs, opts)
	if err != nil {
		t.Fatal(err)
	}

	tor, _ := net.Access(0)
	tor1, port1 := net.Access(1)
	if tor1 != tor {
		t.Fatalf("hosts 0 and 1 on different ToRs")
	}
	seedSpuriousPort(t, bad.Programs[tor], port1)

	// Prove the corrupted ToR against its rule set, with exactly the
	// controller's per-switch options.
	popts := prove.Options{
		LastHop:     false,
		LastHopPort: net.Switches[tor].HostFacing,
	}
	rules := bad.Routing.RulesForSwitch(tor)
	ir, err := bad.Programs[tor].ProveIR()
	if err != nil {
		t.Fatal(err)
	}
	res, err := prove.Check(ir, rules, popts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("prover found no divergence in the corrupted program")
	}
	var cexFinding *prove.Finding
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Cex != nil && f.Cex.Stateless() {
			cexFinding = f
			break
		}
	}
	if cexFinding == nil {
		t.Fatalf("no stateless counterexample among %d findings", len(res.Findings))
	}
	m, err := cexFinding.Cex.Message(itchSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Independent ground truth: a host should receive the packet iff
	// one of its subscription filters matches, evaluated on the AST —
	// no compiler, no BDD, no tables. The publisher never hears its
	// own publication (ingress drop).
	const publisher = 0
	var astWant []int
	for h, exprs := range subs {
		if h == publisher {
			continue
		}
		for _, e := range exprs {
			if subscription.EvalExpr(e, m, nil) {
				astWant = append(astWant, h)
				break
			}
		}
	}
	sort.Ints(astWant)

	refSim, err := New(ref)
	if err != nil {
		t.Fatal(err)
	}
	badSim, err := New(bad)
	if err != nil {
		t.Fatal(err)
	}
	refSet := deliverySet(refSim.Publish(publisher, []*spec.Message{m}, 64))
	badSet := deliverySet(badSim.Publish(publisher, []*spec.Message{m}, 64))

	if refSet != fmt.Sprint(astWant) {
		t.Errorf("clean network disagrees with AST evaluator: net %s, ast %v", refSet, astWant)
	}
	if badSet == refSet {
		t.Errorf("counterexample did not reproduce on the network: both deliver %s", refSet)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "finding: %s (rule %d)\n", cexFinding.Kind, cexFinding.RuleID)
	fmt.Fprintf(&b, "cex: %s\n", formatCex(cexFinding.Cex))
	fmt.Fprintf(&b, "switch-level: want %s, got %s\n", cexFinding.Want.Key(), cexFinding.Got.Key())
	fmt.Fprintf(&b, "ast deliveries: %v\n", astWant)
	fmt.Fprintf(&b, "clean network:  %s\n", refSet)
	fmt.Fprintf(&b, "corrupted:      %s\n", badSet)
	golden := filepath.Join("testdata", "replay_known_bad.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("replay outcome changed:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// seedSpuriousPort seeds the known-bad program: the first leaf that
// does not already forward to port spuriously gains it (the adaptive
// pick keeps the corpus valid across compiler layout changes; the golden
// pins the resulting behavior).
func seedSpuriousPort(t *testing.T, prog *compiler.Program, port int) {
	t.Helper()
	leafIdx := -1
	for i, le := range prog.Leaf {
		hasPort := false
		for _, p := range le.Actions.Ports {
			if p == port {
				hasPort = true
			}
		}
		if !hasPort {
			leafIdx = i
			break
		}
	}
	if leafIdx < 0 {
		t.Fatalf("every leaf already forwards to port %d", port)
	}
	mut := corrupt.Mutation{Op: "add-leaf-port", Leaf: leafIdx, Port: port}
	if err := mut.Apply(prog); err != nil {
		t.Fatal(err)
	}
}

// formatCex renders an assignment deterministically (sorted fields).
func formatCex(a *prove.Assignment) string {
	keys := make([]string, 0, len(a.Fields))
	for k := range a.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, a.Fields[k])
	}
	return strings.Join(parts, " ")
}

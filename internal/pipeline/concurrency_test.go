package pipeline

import (
	"fmt"
	"reflect"
	"sync"
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
// the epoch swap; functionally it checks every delivery is valid under
// one of the two installed programs and that after quiescing the switch
// obeys exactly the last program.
func TestConcurrentProcessInstall(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	progA := compileRules(t, sp, "stock == GOOGL: fwd(1)")
	progB := compileRules(t, sp, "stock == GOOGL: fwd(2)\nstock == MSFT: fwd(3)")
	sw, err := NewSwitch("s1", nil, progA, WithWorkers(4))
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
// contend the shard lock against the batch goroutine, so under -race this
// is the stress of acquire's private-workspace fallback beside the emit
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
	// epoch's.
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

// TestPrivateRunsCounted: a run that finds its shard busy executes in a
// private workspace — the one degraded mode of the packet path — and
// says so in Stats; its deliveries are those of an owned run.
func TestPrivateRunsCounted(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)\nprice > 40: fwd(2)", compiler.Options{})
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}, Bytes: 20}
	want := sw.Process(pkt, 0)
	if len(want) != 2 || want[0].Port != 1 || want[1].Port != 2 {
		t.Fatalf("owned deliveries = %+v", want)
	}
	if st := sw.Stats(); st.PrivateRuns != 0 {
		t.Fatalf("an uncontended run counted as private: %+v", st)
	}
	sw.shards[0].mu.Lock()
	got := sw.Process(pkt, 0)
	sw.shards[0].mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("private run delivered %+v, owned run %+v", got, want)
	}
	if st := sw.Stats(); st.PrivateRuns != 1 || st.Packets != 2 || st.Deliveries != 4 {
		t.Fatalf("stats after one private run = %+v", st)
	}
}

// TestBatchFallbackCounted: a ProcessBatch call that finds the switch's
// own Results in use emits into a throwaway one — the degraded mode of
// the batch entry point — and says so in Stats; its deliveries are those
// of an uncontended call.
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
}

// TestProcessBatchIntoOwners: results live in the Results the caller
// passed and nowhere else. Two goroutines batch on one 2-shard switch,
// each into its own Results. In the first phase they take strict turns
// and each re-checks the results of its previous call *after* the other
// has run — the read a switch-owned buffer could only forbid. In the
// second they run free, side by side, for the race detector.
func TestProcessBatchIntoOwners(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	prog := compileRules(t, sp, "stock == GOOGL: fwd(1)\nstock == MSFT: fwd(2)\nprice > 90: fwd(3)\n")
	sw, err := NewSwitch("owners", nil, prog, WithWorkers(2))
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
// and may call back into the switch. From inside a batch — whose worker
// held the shard lock while matching — a handler re-enters Process with
// a flow-less packet, a stream head and a continuation that all hash to
// the shard being run; concurrent batches and Installs make it a -race
// stress as well. A handler invoked under the shard lock would deadlock
// on the flow-cache access.
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

// TestFlowShardAffinity: a flow's packets always execute on the same
// shard, so a stream's continuation packets meet the decision its
// header packet cached — across Process and ProcessBatch alike.
func TestFlowShardAffinity(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	prog := compileRules(t, sp, "stock == GOOGL: fwd(1)")
	sw, err := NewSwitch("s1", nil, prog, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Workers() != 8 {
		t.Fatalf("workers = %d", sw.Workers())
	}

	// The mapping is pure and non-degenerate.
	used := make(map[int]bool)
	for f := FlowKey(1); f <= 1000; f++ {
		idx := sw.shardIndex(f)
		if idx < 0 || idx >= 8 {
			t.Fatalf("shardIndex(%d) = %d", f, idx)
		}
		if idx != sw.shardIndex(f) {
			t.Fatalf("shardIndex(%d) not stable", f)
		}
		used[idx] = true
	}
	if len(used) < 2 {
		t.Errorf("all 1000 flows hashed to %d shard(s)", len(used))
	}

	// Header packets for 100 flows in one batch, continuations in the
	// next: every continuation must hit its flow's cached decision.
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

// TestProcessBatchMatchesSequential: the batch API is a pure fan-out —
// per-packet results are identical to per-packet Process, both for the
// single-worker (bit-identical, ordered) and multi-worker dataplane.
func TestProcessBatchMatchesSequential(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	rules := `
stock == GOOGL and price > 50: fwd(1)
stock == MSFT: fwd(2)
price > 90: fwd(3)
`
	prog := compileRules(t, sp, rules)
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	var pkts []*Packet
	for i := 0; i < 200; i++ {
		pkts = append(pkts, &Packet{
			In:   i % 4,
			Msgs: []*spec.Message{itchMsg(sp, stocks[i%len(stocks)], int64(i%100), 1)},
		})
	}

	ref, err := NewSwitch("ref", nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Delivery, len(pkts))
	for i, p := range pkts {
		want[i] = ref.Process(p, 0)
	}

	// The program is stateless and the packets flow-less, so the same
	// packets can be replayed against each dataplane variant; message
	// pointers then compare equal across switches.
	for _, workers := range []int{1, 4} {
		sw, err := NewSwitch("batch", nil, prog, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got := sw.ProcessBatch(pkts, 0)
		for i := range want {
			if len(want[i]) == 0 && len(got[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("workers=%d pkt %d: got %+v want %+v", workers, i, got[i], want[i])
			}
		}
		if st := sw.Stats(); st.Packets != int64(len(pkts)) {
			t.Errorf("workers=%d: Packets = %d, want %d", workers, st.Packets, len(pkts))
		}
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

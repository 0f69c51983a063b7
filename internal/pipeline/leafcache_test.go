package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// compileFor compiles a rule set against an existing switch's spec
// (for Install churn in leaf-cache tests).
func compileFor(t testing.TB, sp *spec.Spec, rulesSrc string) *compiler.Program {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(rulesSrc)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestLeafCacheHitsAndStats(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{}, WithLeafCache(1<<16))
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}, Bytes: 100}
	for i := 0; i < 3; i++ {
		out := sw.Process(pkt, 0)
		if len(out) != 1 || out[0].Port != 1 {
			t.Fatalf("iteration %d: deliveries = %+v", i, out)
		}
	}
	st := sw.Stats()
	if st.LeafMisses != 1 || st.LeafFills != 1 || st.LeafHits != 2 {
		t.Fatalf("leaf counters = misses %d fills %d hits %d", st.LeafMisses, st.LeafFills, st.LeafHits)
	}
	lcs := sw.LeafCacheStats()
	if !lcs.Enabled || lcs.Capacity == 0 || lcs.Admissible == 0 {
		t.Fatalf("LeafCacheStats = %+v", lcs)
	}
	if lcs.Hits != st.LeafHits || lcs.Misses != st.LeafMisses || lcs.Fills != st.LeafFills {
		t.Fatalf("LeafCacheStats counters diverge from Stats: %+v vs %+v", lcs, st)
	}
}

// TestLeafCacheOffUnlessSized: a switch has a leaf cache only when
// WithLeafCache names a positive size.
func TestLeafCacheOffUnlessSized(t *testing.T) {
	for name, opts := range map[string][]Option{
		"default": nil, "zero": {WithLeafCache(0)}, "negative": {WithLeafCache(-1)},
	} {
		sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{}, opts...)
		pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}
		sw.Process(pkt, 0)
		sw.Process(pkt, 0)
		if st := sw.Stats(); st.LeafHits != 0 || st.LeafMisses != 0 || st.LeafFills != 0 {
			t.Fatalf("%s: a switch without a cache recorded probes: %+v", name, st)
		}
		if lcs := sw.LeafCacheStats(); lcs.Enabled || lcs.Capacity != 0 {
			t.Fatalf("%s: LeafCacheStats = %+v", name, lcs)
		}
	}
}

// TestInstallInvalidatesLeafCache mirrors TestInstallClearsFlowCache:
// a hot cached decision must die with the epoch swap.
func TestInstallInvalidatesLeafCache(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{}, WithLeafCache(1<<16))
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}
	sw.Process(pkt, 0)
	if out := sw.Process(pkt, 0); len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("pre-install deliveries = %+v", out)
	}
	if st := sw.Stats(); st.LeafHits == 0 {
		t.Fatalf("expected a warm cache before install: %+v", st)
	}
	if err := sw.Install(compileFor(t, sp, "stock == GOOGL: fwd(7)")); err != nil {
		t.Fatal(err)
	}
	if out := sw.Process(pkt, 0); len(out) != 1 || out[0].Port != 7 {
		t.Fatalf("post-install deliveries = %+v (stale leaf-cache decision?)", out)
	}
}

// TestLeafCachePurityNoCacheHiding is the FIB cache-hiding regression:
// a rule refining a cacheable rule on a *non-key* field (str16 is not
// packable into the 5-field key) must never be hidden by a cached
// coarse decision. The fill rule (walk purity) refuses to memoize the
// coarse outcome because its walk branches on the non-key field.
func TestLeafCachePurityNoCacheHiding(t *testing.T) {
	src := `
header market {
    stock : str8 @field_exact;
    price : u32 @field;
    name : str16 @field;
}
`
	sp := spec.MustParse("market", src)
	rules, err := subscription.NewParser(sp).ParseRules(`
stock == GOOGL: fwd(1)
stock == GOOGL and name == SPECIALISSUE: fwd(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch("s1", nil, prog, WithLeafCache(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *spec.Message {
		m := spec.NewMessage(sp)
		m.MustSet("stock", spec.StrVal("GOOGL"))
		m.MustSet("price", spec.IntVal(50))
		m.MustSet("name", spec.StrVal(name))
		return m
	}
	// Coarse packet first: matches only rule 1. Its key (stock, price)
	// is identical to the refined packet's key below.
	for i := 0; i < 2; i++ {
		out := sw.Process(&Packet{In: 9, Msgs: []*spec.Message{mk("ORDINARY")}}, 0)
		if len(out) != 1 || out[0].Port != 1 {
			t.Fatalf("coarse deliveries = %+v", out)
		}
	}
	// Refined packet: must reach both rules even though the coarse
	// outcome was hot. A key-only cache fill here would hide fwd(2).
	out := sw.Process(&Packet{In: 9, Msgs: []*spec.Message{mk("SPECIALISSUE")}}, 0)
	if len(out) != 2 || out[0].Port != 1 || out[1].Port != 2 {
		t.Fatalf("refined deliveries = %+v (cache-hiding!)", out)
	}
	// And the impure walks must not have filled at all.
	if st := sw.Stats(); st.LeafFills != 0 || st.LeafHits != 0 {
		t.Fatalf("impure walks were cached: %+v", st)
	}
}

// TestLeafCacheChurnEpochConsistency races publications across Install
// swaps with the leaf cache on: every delivery must come from one of
// the two installed programs, and once traffic quiesces the hot cache
// must serve exactly the final program's decision. Run under -race
// this doubles as the per-shard cache stress.
func TestLeafCacheChurnEpochConsistency(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{}, WithLeafCache(1<<16))
	progs := []*compiler.Program{
		compileFor(t, sp, "stock == GOOGL: fwd(1)"),
		compileFor(t, sp, "stock == GOOGL: fwd(2)"),
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
	// Concurrent publishers go through Process (heap-fresh results, the
	// concurrent-publication API); they contend the shard lock against
	// the batch goroutine below, exercising the private-workspace
	// fallback of acquire.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, p := range pkts {
					for _, d := range sw.Process(p, 0) {
						if d.Port != 1 && d.Port != 2 {
							select {
							case errs <- fmt.Sprintf("worker %d iter %d pkt %d: port %d", g, it, i, d.Port):
							default:
							}
						}
					}
				}
			}
		}(g)
	}
	// One dedicated batch goroutine emits into the shard arenas; per the
	// reuse contract it reads each batch's results before its next call.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			out := sw.ProcessBatch(pkts, 0)
			for i, ds := range out {
				for _, d := range ds {
					if d.Port != 1 && d.Port != 2 {
						select {
						case errs <- fmt.Sprintf("batch iter %d pkt %d: port %d", it, i, d.Port):
						default:
						}
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
				select {
				case errs <- err.Error():
				default:
				}
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Quiesce on the final program: the warm cache must yield its
	// decision, not any earlier epoch's.
	final := compileFor(t, sp, "stock == GOOGL: fwd(2)")
	if err := sw.Install(final); err != nil {
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

// TestProcessBatchFastPathZeroAlloc pins the workspace invariant: the
// single-worker steady-state batch allocates nothing per op — with the
// leaf cache serving a stateless program, with a stateful program whose
// register reads and writes go through the shared StateTable, and with
// the cache off (scratch, arenas and batched stats do not depend on it).
func TestProcessBatchFastPathZeroAlloc(t *testing.T) {
	const stateless = `
stock == GOOGL: fwd(1)
stock == MSFT and price > 100: fwd(2)
price > 500: fwd(3)
`
	for _, tc := range []struct {
		name    string
		rules   string
		copts   compiler.Options
		opts    []Option
		wantHit bool
	}{
		{name: "stateless", rules: stateless, opts: []Option{WithLeafCache(1 << 16)}, wantHit: true},
		{name: "stateful", rules: stateless + "stock == GOOGL and avg(price, 100us) > 60: fwd(4)\n",
			copts: compiler.Options{LastHop: true}, opts: []Option{WithLeafCache(1 << 16)}, wantHit: true},
		{name: "cache-off", rules: stateless},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, sp := buildSwitch(t, tc.rules, tc.copts, tc.opts...)
			syms := []string{"GOOGL", "MSFT", "AAPL", "INTC"}
			pkts := make([]*Packet, 256)
			for i := range pkts {
				pkts[i] = &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, syms[i%len(syms)], int64(50+i*7%1000), 10)}, Bytes: 64}
			}
			now := time.Duration(0)
			sw.ProcessBatch(pkts, now) // warm arenas + cache
			allocs := testing.AllocsPerRun(20, func() {
				now += 30 * time.Microsecond // windows tumble every few runs
				sw.ProcessBatch(pkts, now)
			})
			if allocs != 0 {
				t.Fatalf("batch allocates %.1f allocs/op, want 0", allocs)
			}
			st := sw.Stats()
			if (st.LeafHits > 0) != tc.wantHit {
				t.Fatalf("leaf hits = %d, want hits: %v (%+v)", st.LeafHits, tc.wantHit, st)
			}
			if tc.copts.LastHop && (st.StateUpdates == 0 || st.Deliveries == 0) {
				t.Fatalf("stateful run never touched a register or delivered: %+v", st)
			}
		})
	}
}

package ctlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

var itchSpec = spec.MustParse("itch", `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`)

func filter(t testing.TB, src string) subscription.Expr {
	t.Helper()
	e, err := subscription.NewParser(itchSpec).ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	return e
}

func msg(stock string, price, shares int64) *spec.Message {
	m := spec.NewMessage(itchSpec)
	m.MustSet("stock", spec.StrVal(stock))
	m.MustSet("price", spec.IntVal(price))
	m.MustSet("shares", spec.IntVal(shares))
	return m
}

func randomSubs(r *rand.Rand, hosts, maxPerHost int) [][]subscription.Expr {
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	parser := subscription.NewParser(itchSpec)
	subs := make([][]subscription.Expr, hosts)
	for h := range subs {
		for i := 0; i < r.Intn(maxPerHost+1); i++ {
			src := fmt.Sprintf("stock == %s and price > %d",
				stocks[r.Intn(len(stocks))], r.Intn(80))
			e, err := parser.ParseFilter(src)
			if err != nil {
				panic(err)
			}
			subs[h] = append(subs[h], e)
		}
	}
	return subs
}

// ruleSet flattens rules to a sorted multiset of "filter: action"
// strings — placement equivalence ignores rule-ID numbering.
func ruleSet(rules []*subscription.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = fmt.Sprintf("%s: %s", r.Filter, r.Action)
	}
	sort.Strings(out)
	return out
}

// TestPlacementMatchesAlgorithm1: both sides place filters through
// routing.Places, so what this pins is the collapse — for random
// subscription sets the reconciler's refcounted (port, expression)
// registry must hold exactly the per-switch rule sets RulesForSwitch
// derives from the batch FIBs, under both policies and with
// approximation on and off.
func TestPlacementMatchesAlgorithm1(t *testing.T) {
	net := topology.MustFatTree(4)
	r := rand.New(rand.NewSource(5))
	for _, policy := range []routing.Policy{routing.MemoryReduction, routing.TrafficReduction} {
		for _, alpha := range []int64{0, 10} {
			for trial := 0; trial < 5; trial++ {
				subs := randomSubs(r, len(net.Hosts), 3)
				ropts := routing.Options{Policy: policy, Alpha: alpha}
				rec, err := NewReconcilerWith(net, itchSpec, WithRouting(ropts))
				if err != nil {
					t.Fatal(err)
				}
				for h, exprs := range subs {
					for _, e := range exprs {
						if _, _, err := rec.AddFilter(h, e); err != nil {
							t.Fatal(err)
						}
					}
				}
				res, err := routing.ComputeFatTree(net, subs, ropts)
				if err != nil {
					t.Fatal(err)
				}
				for sw := range net.Switches {
					want := ruleSet(res.RulesForSwitch(sw))
					got := ruleSet(rec.pendingRules(sw))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v α=%d trial %d switch %s:\n got %v\nwant %v",
							policy, alpha, trial, net.Switches[sw].Name, got, want)
					}
				}
			}
		}
	}
}

// pendingRules returns the registered rule set of a switch regardless
// of whether Compile has run (test helper: placement-only view).
func (r *Reconciler) pendingRules(sw int) []*subscription.Rule {
	sc := r.switches[sw]
	out := make([]*subscription.Rule, 0, len(sc.places))
	for _, pr := range sc.places {
		out = append(out, pr.rule)
	}
	return out
}

// drain compiles every switch's registered-but-uncompiled rules (test
// helper for synchronous Reconciler use).
func drainAll(t *testing.T, rec *Reconciler, ops []RuleOp) map[int]*CompileResult {
	t.Helper()
	bySwitch := make(map[int][]RuleOp)
	for _, op := range ops {
		bySwitch[op.Switch] = append(bySwitch[op.Switch], op)
	}
	out := make(map[int]*CompileResult)
	for sw, swOps := range bySwitch {
		res, err := rec.Compile(sw, swOps)
		if err != nil {
			t.Fatalf("Compile(%d): %v", sw, err)
		}
		out[sw] = res
	}
	return out
}

// TestIncrementalFewerWrites is the acceptance-criteria assertion:
// applying a single-subscription update through the incremental path
// must issue strictly fewer table-entry writes on every affected switch
// than tearing down and reinstalling the full program.
func TestIncrementalFewerWrites(t *testing.T) {
	net := topology.MustFatTree(4)
	r := rand.New(rand.NewSource(11))
	rec, err := NewReconcilerWith(net, itchSpec,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	if err != nil {
		t.Fatal(err)
	}
	var ops []RuleOp
	for h, exprs := range randomSubs(r, len(net.Hosts), 4) {
		for _, e := range exprs {
			_, o, err := rec.AddFilter(h, e)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, o...)
		}
	}
	drainAll(t, rec, ops)
	before := make(map[int]int)
	for sw := range net.Switches {
		before[sw] = rec.Program(sw).TotalEntries()
	}

	_, addOps, err := rec.AddFilter(3, filter(t, "stock == NVDA and price > 42"))
	if err != nil {
		t.Fatal(err)
	}
	if len(addOps) == 0 {
		t.Fatal("single new subscription produced no rule ops")
	}
	for sw, res := range drainAll(t, rec, addOps) {
		writes := res.AddedEntries + res.RemovedEntries
		full := before[sw] + res.Program.TotalEntries()
		if writes >= full {
			t.Errorf("switch %s: delta writes %d not < full reinstall %d",
				net.Switches[sw].Name, writes, full)
		}
		if res.AddedEntries == 0 {
			t.Errorf("switch %s: update installed no entries", net.Switches[sw].Name)
		}
	}
}

// recordingInstaller counts installs and can fail the first N attempts.
type recordingInstaller struct {
	installs atomic.Int64
	prog     atomic.Pointer[compiler.Program]
}

func (ri *recordingInstaller) Install(p *compiler.Program) error {
	ri.installs.Add(1)
	ri.prog.Store(p)
	return nil
}

func newServiceForTest(t *testing.T, net *topology.Network, opts ...Option) (*Service, []*recordingInstaller) {
	t.Helper()
	ris := make([]*recordingInstaller, len(net.Switches))
	installers := make([]Installer, len(net.Switches))
	for i := range ris {
		ris[i] = &recordingInstaller{}
		installers[i] = ris[i]
	}
	svc, err := New(net, itchSpec, append(opts, WithInstallers(installers...))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, ris
}

// TestServiceChurnMatchesBatchDeploy drives randomized subscribe /
// unsubscribe churn through the async service and asserts the final
// per-switch programs are semantically identical to a from-scratch
// batch deployment of the surviving subscriptions.
func TestServiceChurnMatchesBatchDeploy(t *testing.T) {
	net := topology.MustFatTree(4)
	r := rand.New(rand.NewSource(23))
	svc, ris := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction, Alpha: 10}))
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	type liveFilter struct{ host, id int }
	var live []liveFilter
	exprByKey := make(map[string]subscription.Expr)
	liveExprs := make(map[int]map[int]subscription.Expr) // host → id → expr
	for step := 0; step < 120; step++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(live))
			lf := live[i]
			live = append(live[:i], live[i+1:]...)
			if _, err := svc.Unsubscribe(lf.host, []int{lf.id}); err != nil {
				t.Fatalf("step %d: Unsubscribe: %v", step, err)
			}
			delete(liveExprs[lf.host], lf.id)
		} else {
			h := r.Intn(len(net.Hosts))
			src := fmt.Sprintf("stock == %s and price > %d", stocks[r.Intn(len(stocks))], r.Intn(80))
			e, ok := exprByKey[src]
			if !ok {
				e = filter(t, src)
				exprByKey[src] = e
			}
			_, ids, err := svc.Subscribe(h, []subscription.Expr{e})
			if err != nil {
				t.Fatalf("step %d: Subscribe: %v", step, err)
			}
			live = append(live, liveFilter{host: h, id: ids[0]})
			if liveExprs[h] == nil {
				liveExprs[h] = make(map[int]subscription.Expr)
			}
			liveExprs[h][ids[0]] = e
		}
	}
	svc.Quiesce()

	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		ids := make([]int, 0, len(liveExprs[h]))
		for id := range liveExprs[h] {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			subs[h] = append(subs[h], liveExprs[h][id])
		}
	}
	res, err := routing.ComputeFatTree(net, subs, svc.cfg.Routing)
	if err != nil {
		t.Fatal(err)
	}
	for sw := range net.Switches {
		batch, err := compiler.Compile(itchSpec, res.RulesForSwitch(sw), compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inst := ris[sw].prog.Load()
		if inst == nil {
			if batch.TotalEntries() == 0 {
				continue
			}
			t.Fatalf("switch %s: no program installed but batch has %d entries",
				net.Switches[sw].Name, batch.TotalEntries())
		}
		for trial := 0; trial < 40; trial++ {
			m := msg(stocks[r.Intn(len(stocks))], int64(r.Intn(100)), 1)
			want := batch.Eval(m, nil).Key()
			got := inst.Eval(m, nil).Key()
			if got != want {
				t.Fatalf("switch %s: live program %s != batch %s on %s",
					net.Switches[sw].Name, got, want, m)
			}
		}
	}
	snap := svc.Stats()
	if snap.Applied != snap.Events {
		t.Errorf("applied %d != events %d", snap.Applied, snap.Events)
	}
	if snap.Failures != 0 {
		t.Errorf("unexpected failures: %+v", snap)
	}
	// A node is 12 bytes in the store before anything else is counted.
	if snap.EngineNodes == 0 || snap.EngineMemoEntries == 0 || snap.EngineBytes < 12*snap.EngineNodes ||
		snap.Fallbacks != snap.Compactions {
		t.Errorf("engine gauges %d nodes / %d memo entries / %d bytes, %d fallbacks of which %d compactions",
			snap.EngineNodes, snap.EngineMemoEntries, snap.EngineBytes, snap.Fallbacks, snap.Compactions)
	}
	// Update locality: every batch drains at least one touched switch, and
	// only a batch can change one.
	if snap.SwitchesChanged == 0 || snap.SwitchesChanged > snap.Batches || snap.Batches > snap.SwitchesTouched {
		t.Errorf("locality counters: %d switches touched, %d batches, %d changed",
			snap.SwitchesTouched, snap.Batches, snap.SwitchesChanged)
	}
	if snap.Latency.N == 0 || snap.Latency.P99 <= 0 {
		t.Errorf("no latency recorded: %+v", snap.Latency)
	}
	if snap.Keeps == 0 {
		t.Errorf("no entry reuse recorded across churn: %+v", snap)
	}
}

// TestUnchangedProgramNotReinstalled: unsubscribing a filter that a
// broader one from the same host already forwards leaves every
// switch's merged diagram — and so its *Program — as it was. The
// service completes the event without reinstalling that program, so no
// switch advances its epoch.
func TestUnchangedProgramNotReinstalled(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, ris := newServiceForTest(t, net, WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	installs := func() int64 {
		var n int64
		for _, ri := range ris {
			n += ri.installs.Load()
		}
		return n
	}
	if _, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
		t.Fatal(err)
	}
	_, ids, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL and price > 500")})
	if err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	before := installs()
	progs := make([]*compiler.Program, len(net.Switches))
	for sw := range progs {
		progs[sw] = svc.Program(sw)
	}
	ev, err := svc.Unsubscribe(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	<-ev.Done()
	if err := ev.Err(); err != nil {
		t.Fatalf("unsubscribe event: %v", err)
	}
	for sw := range progs {
		if svc.Program(sw) != progs[sw] {
			t.Fatalf("switch %s: unsubscribe compiled a new program", net.Switches[sw].Name)
		}
	}
	if n := installs() - before; n != 0 {
		t.Errorf("unsubscribe reinstalled %d unchanged programs, want 0", n)
	}
}

// TestRetryBackoff injects apply failures and checks the worker retries
// with backoff until success, and fails the event after maxRetries.
func TestRetryBackoff(t *testing.T) {
	net := topology.MustFatTree(4)
	var fails atomic.Int64
	fails.Store(3)
	svc, ris := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}),
		WithApplyHook(func(sw, attempt int) error {
			if fails.Add(-1) >= 0 {
				return errors.New("injected apply fault")
			}
			return nil
		}))
	ev, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	<-ev.Done()
	if ev.Err() != nil {
		t.Fatalf("event failed despite retries: %v", ev.Err())
	}
	snap := svc.Stats()
	if snap.Retries < 3 {
		t.Errorf("retries = %d, want >= 3", snap.Retries)
	}
	var installed int64
	for _, ri := range ris {
		installed += ri.installs.Load()
	}
	if installed == 0 {
		t.Error("nothing installed after retries")
	}

	// Permanent fault: the event must fail and report it.
	fails.Store(1 << 30)
	ev2, _, err := svc.Subscribe(1, []subscription.Expr{filter(t, "stock == MSFT")})
	if err != nil {
		t.Fatal(err)
	}
	<-ev2.Done()
	if !errors.Is(ev2.Err(), ErrApplyFailed) {
		t.Errorf("event error = %v, want ErrApplyFailed", ev2.Err())
	}
	if svc.Stats().Failures == 0 {
		t.Error("failure not counted")
	}
}

// TestApplyErrorRecovery injects a batch the incremental engine rejects
// half-way — its removal is applied, then an add collides with a live
// rule ID — and checks Compile recovers through FullRebuild: the switch
// ends on the program a batch compile of its registry produces, and
// keeps applying batches afterwards.
func TestApplyErrorRecovery(t *testing.T) {
	net := topology.MustFatTree(4)
	rec, err := NewReconcilerWith(net, itchSpec,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := net.Access(0)
	compile := func(ops []RuleOp) *CompileResult {
		t.Helper()
		var mine []RuleOp
		for _, op := range ops {
			if op.Switch == sw {
				mine = append(mine, op)
			}
		}
		res, err := rec.Compile(sw, mine)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var ids []int
	for i, stock := range []string{"GOOGL", "MSFT", "AAPL"} {
		id, ops, err := rec.AddFilter(0, filter(t, fmt.Sprintf("stock == %s and price > %d", stock, 10*i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if res := compile(ops); res.Full {
			t.Fatalf("plain add %d took the full-rebuild path", i)
		}
	}

	removal, err := rec.RemoveFilter(0, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	live := rec.Rules(sw)
	clash := live[len(live)-1]
	bad := append(removal, RuleOp{Switch: sw, Add: true, RuleID: clash.ID, Rule: &subscription.Rule{
		ID: clash.ID, Filter: filter(t, "stock == FB"), Action: clash.Action,
	}})
	res := compile(bad)
	if !res.Full || res.Compacted {
		t.Fatalf("apply error: Full=%v Compacted=%v, want a recovery rebuild", res.Full, res.Compacted)
	}
	batch, err := compiler.Compile(itchSpec, rec.Rules(sw), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if added, removed, _ := compiler.DiffPrograms(rec.Program(sw).Canonical(), batch.Canonical()); added+removed != 0 {
		t.Errorf("recovered program differs from a batch compile of the registry: +%d -%d", added, removed)
	}
	if got := rec.Program(sw).Eval(msg("FB", 1, 1), nil); got.IsEmpty() {
		t.Error("the clashing add was lost in recovery")
	}
	if got := rec.Program(sw).Eval(msg("GOOGL", 99, 1), nil); !got.IsEmpty() {
		t.Errorf("the removed filter survived recovery: %s", got)
	}

	_, ops, err := rec.AddFilter(0, filter(t, "stock == ORCL"))
	if err != nil {
		t.Fatal(err)
	}
	if res := compile(ops); res.Full {
		t.Error("the batch after recovery took the full-rebuild path again")
	}
	if got := rec.Program(sw).Eval(msg("ORCL", 1, 1), nil); got.IsEmpty() {
		t.Error("the rebuilt engine did not take the next add")
	}
}

// TestCompactionBound churns one switch for 2000 events with nothing to
// tune: what its engine retains stays under the compaction bound after
// every batch, compaction fires, and across each compaction the program
// keeps deciding every message as the AST evaluator does on the
// registry's rules.
func TestCompactionBound(t *testing.T) {
	net := topology.MustFatTree(4)
	rec, err := NewReconcilerWith(net, itchSpec,
		WithRouting(routing.Options{Policy: routing.TrafficReduction, Alpha: 10}))
	if err != nil {
		t.Fatal(err)
	}
	core := net.LayerSwitches(topology.Core)[0].ID
	sc := rec.switches[core]
	r := rand.New(rand.NewSource(5))
	sample := func() *spec.Message {
		return msg(fmt.Sprintf("S%02d", r.Intn(48)), int64(r.Intn(1100)), 1)
	}
	agree := func(when string) {
		t.Helper()
		rules, prog := rec.Rules(core), rec.Program(core)
		for i := 0; i < 200; i++ {
			m := sample()
			want := subscription.MatchActions(rules, m, nil).Key()
			if got := prog.Eval(m, nil).Key(); got != want {
				t.Fatalf("%s: %s: program %s, evaluator %s", when, m, got, want)
			}
		}
	}

	type liveFilter struct{ host, id int }
	var live []liveFilter
	compactions := 0
	for ev := 0; ev < 2000; ev++ {
		var ops []RuleOp
		if len(live) < 96 || ev%2 == 0 {
			host := r.Intn(len(net.Hosts))
			id, o, err := rec.AddFilter(host, filter(t,
				fmt.Sprintf("stock == S%02d and price > %d", r.Intn(48), 50*(1+r.Intn(19)))))
			if err != nil {
				t.Fatal(err)
			}
			live, ops = append(live, liveFilter{host, id}), o
		} else {
			i := r.Intn(len(live))
			o, err := rec.RemoveFilter(live[i].host, live[i].id)
			if err != nil {
				t.Fatal(err)
			}
			live[i], live, ops = live[len(live)-1], live[:len(live)-1], o
		}
		var mine []RuleOp
		for _, op := range ops {
			if op.Switch == core {
				mine = append(mine, op)
			}
		}
		if len(mine) == 0 {
			continue
		}
		before := sc.inc
		if compactions == 0 {
			if nodes, memo := before.CacheSize(); nodes+memo > compactFloor-compactFloor/16 {
				agree("before the first compaction")
			}
		}
		res, err := rec.Compile(core, mine)
		if err != nil {
			t.Fatal(err)
		}
		if res.Full != res.Compacted || res.Compacted != (sc.inc != before) {
			t.Fatalf("event %d: Full=%v Compacted=%v, engine replaced=%v", ev, res.Full, res.Compacted, sc.inc != before)
		}
		if res.Compacted {
			compactions++
			agree(fmt.Sprintf("after compaction %d", compactions))
		}
		if nodes, memo := sc.inc.CacheSize(); nodes+memo > max(compactFloor, compactFactor*sc.fresh) {
			t.Fatalf("event %d: engine retains %d nodes + %d memo entries, over the bound", ev, nodes, memo)
		}
	}
	if compactions == 0 {
		t.Error("2000 events never compacted")
	}
	agree("at the end")
	nodes, memo := sc.inc.CacheSize()
	if n, m, bytes := rec.EngineSize(core); n != int64(nodes) || m != int64(memo) || bytes != int64(sc.inc.CacheBytes()) || n == 0 {
		t.Errorf("EngineSize(core) = %d, %d, %d, want the churned engine's %d, %d, %d",
			n, m, bytes, nodes, memo, sc.inc.CacheBytes())
	}
}

// TestLatencyRecordBounded: the latency record is a window, not a log.
// After 200 000 completions it holds latencyWindow samples — so a Stats
// call copies and sorts the same amount as after 5 000 — while N and Max
// still cover every event and the percentiles follow the recent ones.
func TestLatencyRecordBounded(t *testing.T) {
	svc, _ := newServiceForTest(t, topology.MustFatTree(4),
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	svc.Quiesce()
	base := svc.Stats().Latency.N
	record := func(n int, ns float64) {
		svc.mu.Lock()
		for i := 0; i < n; i++ {
			svc.latency.add(ns)
		}
		svc.mu.Unlock()
	}
	record(1, 9e9)
	record(5000, 1e6)
	held := cap(svc.latency.ring)
	record(200000-5001, 2e6)
	if len(svc.latency.ring) != latencyWindow || cap(svc.latency.ring) != held {
		t.Fatalf("record holds %d samples (cap %d) after 200000 completions, want %d (cap %d as after 5000)",
			len(svc.latency.ring), cap(svc.latency.ring), latencyWindow, held)
	}
	lat := svc.Stats().Latency
	if lat.N != base+200000 {
		t.Errorf("Latency.N = %d, want the cumulative %d", lat.N, base+200000)
	}
	if lat.Max != 9*time.Second {
		t.Errorf("Latency.Max = %v, want the all-time 9s", lat.Max)
	}
	if lat.P50 != 2*time.Millisecond || lat.P99 != 2*time.Millisecond {
		t.Errorf("percentiles %v / %v do not follow the latest window (2ms)", lat.P50, lat.P99)
	}
}

// TestQueueBackpressure checks MaxPending bounds the in-flight events.
func TestQueueBackpressure(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}),
		WithQueueDepth(2))
	for i := 0; i < 40; i++ {
		if _, _, err := svc.Subscribe(i%len(net.Hosts), []subscription.Expr{
			filter(t, fmt.Sprintf("price > %d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Quiesce()
	snap := svc.Stats()
	if snap.PeakQueueDepth > 2 {
		t.Errorf("peak queue depth %d exceeds MaxPending 2", snap.PeakQueueDepth)
	}
	if snap.Applied != snap.Events {
		t.Errorf("applied %d != events %d", snap.Applied, snap.Events)
	}
}

// TestSubmitAfterClose: once Close has begun, every submission fails
// with ErrClosed — one made after Close, and one already blocked on a
// full queue, which Close must wake without waiting for the apply in
// flight.
func TestSubmitAfterClose(t *testing.T) {
	tr := WithRouting(routing.Options{Policy: routing.TrafficReduction})
	t.Run("after", func(t *testing.T) {
		net := topology.MustFatTree(4)
		svc, _ := newServiceForTest(t, net, tr)
		for h := range net.Hosts {
			if _, _, err := svc.Subscribe(h, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
				t.Fatal(err)
			}
		}
		svc.Quiesce()
		svc.Close()
		for i := 0; i < 20; i++ {
			if _, _, err := svc.Subscribe(i%len(net.Hosts), []subscription.Expr{filter(t, "stock == MSFT")}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Subscribe %d after Close = %v, want ErrClosed", i, err)
			}
		}
		if d := svc.Stats().QueueDepth; d != 0 {
			t.Errorf("QueueDepth after Close = %d, want 0", d)
		}
	})
	t.Run("blocked", func(t *testing.T) {
		release := make(chan struct{})
		svc, _ := newServiceForTest(t, topology.MustFatTree(4), tr, WithQueueDepth(1),
			WithApplyHook(func(sw, attempt int) error {
				<-release
				return nil
			}))
		if _, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
			t.Fatal(err)
		}
		msft := []subscription.Expr{filter(t, "stock == MSFT")}
		second := make(chan error, 1)
		go func() {
			_, _, err := svc.Subscribe(1, msft)
			second <- err
		}()
		select {
		case err := <-second:
			t.Fatalf("Subscribe on a full queue returned %v, want it to block", err)
		case <-time.After(50 * time.Millisecond):
		}
		closed := make(chan struct{})
		go func() {
			svc.Close()
			close(closed)
		}()
		select {
		case err := <-second:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("blocked Subscribe = %v after Close, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Close did not release the blocked Subscribe")
		}
		close(release)
		<-closed
	})
}

// TestStatsConsistentCut: a snapshot is one cut of the counters. Under
// concurrent churn every snapshot's event counts add up, and the events
// not yet applied are exactly the queue depth.
func TestStatsConsistentCut(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	const workers, rounds = 4, 100
	exprs := make([][]subscription.Expr, 8)
	for i := range exprs {
		exprs[i] = []subscription.Expr{filter(t, fmt.Sprintf("stock == S%d", i))}
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < rounds; i++ {
				_, ids, err := svc.Subscribe(w, exprs[i%len(exprs)])
				if err == nil {
					_, err = svc.Unsubscribe(w, ids)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	check := func(snap Snapshot) {
		t.Helper()
		if snap.Events != snap.Subscribes+snap.Unsubscribes+1 {
			t.Fatalf("Events %d != Subscribes %d + Unsubscribes %d + 1", snap.Events, snap.Subscribes, snap.Unsubscribes)
		}
		if d := snap.Events - snap.Applied; d != int64(snap.QueueDepth) || snap.QueueDepth > snap.PeakQueueDepth {
			t.Fatalf("Events %d − Applied %d = %d, QueueDepth %d, PeakQueueDepth %d",
				snap.Events, snap.Applied, d, snap.QueueDepth, snap.PeakQueueDepth)
		}
	}
	for running := workers; running > 0; {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
			running--
		default:
			check(svc.Stats())
		}
	}
	svc.Quiesce()
	snap := svc.Stats()
	check(snap)
	if snap.Events != 2*workers*rounds+1 || snap.QueueDepth != 0 {
		t.Errorf("after Quiesce: Events %d, QueueDepth %d; want %d, 0", snap.Events, snap.QueueDepth, 2*workers*rounds+1)
	}
}

// TestUnsubscribeErrors checks classified error paths.
func TestUnsubscribeErrors(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	if _, err := svc.Unsubscribe(0, []int{99}); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("Unsubscribe(unknown) = %v, want ErrUnknownFilter", err)
	}
	_, ids, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Unsubscribe(1, ids); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("cross-host Unsubscribe = %v, want ErrUnknownFilter", err)
	}
	if _, _, err := svc.Subscribe(len(net.Hosts)+5, []subscription.Expr{
		filter(t, "stock == AAPL"),
	}); !errors.Is(err, ErrBadHost) {
		t.Errorf("Subscribe(bad host) = %v, want ErrBadHost", err)
	}
}

// BenchmarkPlacement is one AddFilter + RemoveFilter on fat-tree(4) under
// TR against a 192-filter registry (12 per host, the shape of bench's
// ctl_churn preload): placement and the refcount registry only, no
// compile. Its allocs/op row in perf-guard holds the registry to a struct
// key with the expression printed once per filter — a formatted-string
// key prints it on each of the filter's 20 places, and again on release.
func BenchmarkPlacement(b *testing.B) {
	net := topology.MustFatTree(4)
	rec, err := NewReconcilerWith(net, itchSpec, WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	if err != nil {
		b.Fatal(err)
	}
	parser := subscription.NewParser(itchSpec)
	for i := 0; i < 192; i++ {
		e, err := parser.ParseFilter(fmt.Sprintf("stock == S%d and price > %d", i%50, i))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := rec.AddFilter(i%len(net.Hosts), e); err != nil {
			b.Fatal(err)
		}
	}
	e, err := parser.ParseFilter("stock == GOOGL and price > 77")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := rec.AddFilter(i%len(net.Hosts), e)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rec.RemoveFilter(-1, id); err != nil {
			b.Fatal(err)
		}
	}
}

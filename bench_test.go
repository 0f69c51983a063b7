// Package camusbench holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§VIII). One benchmark per
// result: run all with
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g. -bench=Fig12. Each benchmark executes the
// full experiment per iteration and logs the reproduced series; the same
// experiments are runnable standalone via cmd/camus-bench (use -full
// there for paper-scale axes).
package camusbench

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"camus/internal/analysis/fitcheck"
	"camus/internal/analysis/netcheck"
	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/experiments"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
	"camus/internal/workload/drive"
)

// TestMain stamps the host shape into every benchmark run (and thus
// bench-report.txt), so the ROADMAP's single-core caveat is
// machine-checkable against the recorded numbers.
func TestMain(m *testing.M) {
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH)
	os.Exit(m.Run())
}

func runExperiment(b *testing.B, fn func(experiments.Config) *experiments.Result) {
	b.Helper()
	cfg := experiments.DefaultConfig()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = fn(cfg)
	}
	b.StopTimer()
	if res != nil {
		b.Logf("\n%s", res)
	}
}

// BenchmarkFig08ITCHLatencyCDF — §VIII-E1, Fig. 8: ITCH end-to-end
// latency, Camus switch filtering vs. software subscriber, on the
// Nasdaq-trace-like and synthetic Zipf workloads.
func BenchmarkFig08ITCHLatencyCDF(b *testing.B) {
	runExperiment(b, experiments.Fig8)
}

// BenchmarkFig09INTThroughput — §VIII-E2, Fig. 9: INT filter throughput
// vs. filter count for C userspace, DPDK, and Camus at 100G line rate.
func BenchmarkFig09INTThroughput(b *testing.B) {
	runExperiment(b, experiments.Fig9)
}

// BenchmarkFig11HICNLatency — §VIII-E3, Fig. 11: tail latency for
// uncached hICN content with the stateful cache-bypass predicates.
func BenchmarkFig11HICNLatency(b *testing.B) {
	runExperiment(b, experiments.Fig11)
}

// BenchmarkFig12BDDMemory — §VIII-F2, Fig. 12: compiled table entries vs.
// the one-big-table baseline, sweeping subscription count and
// selectiveness.
func BenchmarkFig12BDDMemory(b *testing.B) {
	runExperiment(b, experiments.Fig12)
}

// BenchmarkTable1Resources — §VIII-F2, Table I: switch resource usage
// for the ITCH, INT, and hICN applications.
func BenchmarkTable1Resources(b *testing.B) {
	runExperiment(b, experiments.Table1)
}

// BenchmarkFig13RoutingMemory — §VIII-G1, Fig. 13a–c: per-layer switch
// memory for the MR and TR policies with and without α-discretization.
func BenchmarkFig13RoutingMemory(b *testing.B) {
	runExperiment(b, experiments.Fig13)
}

// BenchmarkFig13dExtraTraffic — §VIII-G1, Fig. 13d: extra core-layer
// traffic as a function of the discretization unit α.
func BenchmarkFig13dExtraTraffic(b *testing.B) {
	runExperiment(b, experiments.Fig13d)
}

// BenchmarkFig14CompileTime — §VIII-G3, Fig. 14: dynamic reconfiguration
// (recompile) time for MR and TR, 1–3 variables, α=10 vs. α=1.
func BenchmarkFig14CompileTime(b *testing.B) {
	runExperiment(b, experiments.Fig14)
}

// BenchmarkFig15GeneralTopology — §VIII-G2, Fig. 15: max per-switch FIB
// entries for MST vs. MST++ spanning trees on AS-like graphs.
func BenchmarkFig15GeneralTopology(b *testing.B) {
	runExperiment(b, experiments.Fig15)
}

// BenchmarkSwitchBatch — the switch core on the Fig. 9 INT workload
// (100 compiled filters, generated telemetry stream): ProcessBatch
// throughput on one 20 000-packet batch, in Mpps.
func BenchmarkSwitchBatch(b *testing.B) {
	prog := experiments.INTFilterProgram(100, 1)
	stream := workload.INTStream(workload.INTStreamConfig{Reports: 20000, Seed: 1})
	pkts := make([]*pipeline.Packet, len(stream))
	for i, r := range stream {
		pkts[i] = &pipeline.Packet{In: 0, Msgs: []*spec.Message{r.Message()}, Bytes: formats.INTReportBytes}
	}
	sw, err := pipeline.NewSwitch("bench", nil, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessBatch(pkts, 0)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*len(pkts))/s/1e6, "Mpps")
	}
}

// BenchmarkDecodeITCH — wire decode alone, the packet layer of the wire
// path (DESIGN.md "Wire codec"): MoldUDP64 datagrams of 1–8
// Zipf-batched add-orders (the bench/ generator's shape) through
// formats.DecodeITCHFeed, one frame per op. ns/msg is the per-message
// cost. allocs/op is 0: the messages, their pointer slice and the copy
// of the stock strings are carved from pooled chunks, whose refill every
// few dozen frames rounds away. perf-guard holds it at 0, so per-frame,
// per-message or per-field garbage returning to decode fails CI.
func BenchmarkDecodeITCH(b *testing.B) {
	feed := workload.ITCHFeed(workload.ITCHFeedConfig{Packets: 4096, BatchZipf: true, MaxBatch: 8, Seed: 1})
	frames := make([][]byte, len(feed))
	for i, p := range feed {
		var err error
		if frames[i], err = formats.EncodeITCHFeed("CAMUSBENCH", uint64(i), p.Orders); err != nil {
			b.Fatal(err)
		}
	}
	benchFrames(b, len(frames), func(i int) (int, error) {
		msgs, err := formats.DecodeITCHFeed(frames[i])
		return len(msgs), err
	})
}

// BenchmarkDecodeINT — the smallest frame the system carries: one
// 27-byte telemetry report (a u4/u4 pair ahead of five subscribable
// words) per op through formats.DecodeINT.
func BenchmarkDecodeINT(b *testing.B) {
	stream := workload.INTStream(workload.INTStreamConfig{Reports: 4096, Seed: 1})
	frames := make([][]byte, len(stream))
	for i, r := range stream {
		var err error
		if frames[i], err = formats.EncodeINT(r); err != nil {
			b.Fatal(err)
		}
	}
	benchFrames(b, len(frames), func(i int) (int, error) {
		_, err := formats.DecodeINT(frames[i])
		return 1, err
	})
}

// benchFrames runs one codec call per op over frames 0..frames-1
// round-robin and reports the cost per message as ns/msg.
func benchFrames(b *testing.B, frames int, op func(i int) (msgs int, err error)) {
	b.ReportAllocs()
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		n, err := op(i % frames)
		if err != nil {
			b.Fatal(err)
		}
		msgs += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}

// BenchmarkEncodeITCH — the publisher side of DecodeITCH: the same
// Zipf-batched feed through formats.EncodeITCHFeed, one datagram per op.
// Every field is written through its compiled FieldCodec into one buffer
// per frame, so allocs/op is 1 whatever the order count; perf-guard pins
// it, so a value map or boxed field returning to an encoder fails CI.
func BenchmarkEncodeITCH(b *testing.B) {
	feed := workload.ITCHFeed(workload.ITCHFeedConfig{Packets: 4096, BatchZipf: true, MaxBatch: 8, Seed: 1})
	benchFrames(b, len(feed), func(i int) (int, error) {
		_, err := formats.EncodeITCHFeed("CAMUSBENCH", uint64(i), feed[i].Orders)
		return len(feed[i].Orders), err
	})
}

// BenchmarkEncodeINT — one telemetry report per op through
// formats.EncodeINT: one allocation, the frame.
func BenchmarkEncodeINT(b *testing.B) {
	stream := workload.INTStream(workload.INTStreamConfig{Reports: 4096, Seed: 1})
	benchFrames(b, len(stream), func(i int) (int, error) {
		_, err := formats.EncodeINT(stream[i])
		return 1, err
	})
}

// BenchmarkCompile10k — one batch compile of a 10k-rule ITCH workload
// (symbol-equality filters with tick-threshold price predicates, the
// §VIII-F3 shape). Its allocs/op is the host-independent number `make
// perf-guard` holds; DESIGN §11 has the profile of where the time goes.
func BenchmarkCompile10k(b *testing.B) {
	p := subscription.NewParser(formats.ITCH)
	syms := workload.DefaultSymbols(2000)
	r := rand.New(rand.NewSource(9))
	rules := make([]*subscription.Rule, 0, 10000)
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("stock == %s and price > %d: fwd(%d)",
			syms[r.Intn(len(syms))], (r.Intn(20)+1)*100, i%48)
		rule, err := p.ParseRule(src, i)
		if err != nil {
			b.Fatal(err)
		}
		rules = append(rules, rule)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(formats.ITCH, rules, compiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricBatch — the fabric wire loop, bench/'s ctl_churn timed
// phase without the daemon: a fat-tree(4) deployed under TR α=10 with 192
// `stock == S and price > P` filters (12 per host, 64 symbols), and per
// op 256 MoldUDP64 frames decoded, published each from the next host
// through one netsim.PublishBatch, and every host delivery read. Decode
// costs only the refills of its pooled chunks (about 20 per op; how many
// depends on where the chunks run out), and the batch its three result
// slices. The benchmark holds allocs/op to at most frames/8 + 3, so an
// allocation per frame — a per-frame slab, or one per hop or delivery —
// returning to the fabric fails perf-guard whatever the 2x ratio would
// forgive.
func BenchmarkFabricBatch(b *testing.B) {
	const (
		perHost       = 12
		symbols       = 64
		frames        = 256
		maxAllocsOp   = frames/8 + 3
		thresholdStep = 19
	)
	net := topology.MustFatTree(4)
	syms := workload.DefaultSymbols(100)
	parser := subscription.NewParser(formats.ITCH)
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		for j := 0; j < perHost; j++ {
			idx := h*perHost + j
			e, err := parser.ParseFilter(fmt.Sprintf("stock == %s and price > %d",
				syms[idx%symbols], 50*(1+(idx/symbols*6+idx%symbols*3)%thresholdStep)))
			if err != nil {
				b.Fatal(err)
			}
			subs[h] = append(subs[h], e)
		}
	}
	d, err := controller.Deploy(net, formats.ITCH, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := netsim.New(d)
	if err != nil {
		b.Fatal(err)
	}
	feed := workload.ITCHFeed(workload.ITCHFeedConfig{Packets: 1 << 12, Stocks: 100, BatchZipf: true, MaxBatch: 8, Seed: 1})
	wire := make([][]byte, len(feed))
	for i, p := range feed {
		if wire[i], err = formats.EncodeITCHFeed("CAMUSBENCH", uint64(i), p.Orders); err != nil {
			b.Fatal(err)
		}
	}
	pubs := make([]netsim.Publication, frames)
	var pos, delivered int
	op := func() {
		for i := range pubs {
			frame := wire[pos%len(wire)]
			msgs, err := formats.DecodeITCHFeed(frame)
			if err != nil {
				b.Fatal(err)
			}
			pubs[i] = netsim.Publication{Host: pos % len(net.Hosts), Msgs: msgs, Bytes: len(frame)}
			pos++
		}
		for _, ds := range sim.PublishBatch(pubs) {
			for i := range ds {
				delivered += len(ds[i].Msgs)
			}
		}
	}
	for i := 0; i < len(wire)/frames; i++ { // warm the wave scratch on every frame
		op()
	}
	if got := testing.AllocsPerRun(10, op); got > maxAllocsOp {
		b.Errorf("%.0f allocs per %d-frame batch, want at most %d", got, frames, maxAllocsOp)
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Error("no frame was delivered anywhere")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*frames)/s/1e3, "kframes/s")
	}
	if tr := sim.Traffic(); tr.Looped != 0 {
		b.Errorf("%d packets looped", tr.Looped)
	}
}

// benchDrive replays cfg through the load driver b.N times, timing the
// replay but not setup or shutdown, and returns the last run's result. A
// refused event or a failed verdict fails the benchmark.
func benchDrive(b *testing.B, cfg drive.Config) drive.Result {
	var res drive.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := drive.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err = d.Run()
		b.StopTimer()
		if err := errors.Join(err, d.Close(), res.Verdict()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UpdatesPerSec(), "updates/s")
	b.ReportMetric(0, "ns/op")
	return res
}

// BenchmarkChurn — the live control plane under load: a fat-tree(4)
// netsim with a ctlplane.Service hot-swapping programs while background
// publishers keep traffic flowing. Each iteration drives a generated
// Poisson/Zipf churn stream (subscribe:unsubscribe ≈ 1:1 once warm)
// through Subscribe/Unsubscribe and quiesces; reported metrics are
// sustained updates/sec and the p50/p99 event→all-switches-applied
// latency.
func BenchmarkChurn(b *testing.B) {
	res := benchDrive(b, drive.Config{
		K: 4, Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
		Churn:   workload.ChurnConfig{Events: 600, PoolSize: 40, Seed: 3},
		Workers: 1, Traffic: true,
	})
	s := res.Snapshot
	b.ReportMetric(float64(s.Latency.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(s.Latency.P99.Nanoseconds()), "p99-ns")
	b.Logf("churn: %d events, %d batches (coalesced), +%d -%d =%d entries, %d retries, %d fallbacks, latency %s",
		s.Events, s.Batches, s.Installs, s.Deletes, s.Keeps, s.Retries, s.Fallbacks, s.Latency)
	if u := res.UpdatesPerSec(); u < 1000 {
		b.Errorf("sustained %.0f updates/sec, want >= 1000", u)
	}
}

// BenchmarkCoverChurn — the covering control plane on a covering-heavy
// workload: deep Zipf-nested refinement chains (workload.CoverChains)
// concentrated on a few hosts, churned through a WithCovering service
// while background traffic flows. The reported reduction metric is the
// routing-state ratio full/covering — (roots + covered obligations) /
// roots across every (switch, port) forest — and the benchmark fails
// if subsumption stops buying at least a 2× table-state reduction.
func BenchmarkCoverChurn(b *testing.B) {
	res := benchDrive(b, drive.Config{
		K: 4, Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
		Churn: workload.ChurnConfig{
			Hosts: 4, Events: 600, PoolSize: 64,
			CoverHeavy: true, CoverDepth: 8, AddFraction: 0.7, Seed: 3,
		},
		Service: []ctlplane.Option{ctlplane.WithCovering()},
		Workers: 1, Traffic: true,
	})
	s := res.Snapshot
	var reduction float64
	if s.CoverEntries > 0 {
		reduction = float64(s.CoverEntries+s.CoverObligations) / float64(s.CoverEntries)
	}
	b.ReportMetric(reduction, "reduction-x")
	b.ReportMetric(float64(s.Latency.P50.Nanoseconds()), "p50-ns")
	b.Logf("cover churn: %d events, %d batches, %d entries + %d covered (%.2f× reduction), latency %s",
		s.Events, s.Batches, s.CoverEntries, s.CoverObligations, reduction, s.Latency)
	if reduction < 2 {
		b.Errorf("covering reduction %.2f×, want >= 2× on the covering-heavy workload", reduction)
	}
}

// BenchmarkCtlplaneDaemon — the multi-tenant control-plane daemon end
// to end: HTTP+JSON API → tenancy admission → round-robin dispatch →
// reconciler → netsim switches, with every event appended to the
// durable log (group-commit fsync). Each iteration boots a fresh daemon
// with a fresh log, drives a Zipf multi-tenant churn stream through the
// wire API, and reports sustained updates/sec plus client-observed
// p50/p99 request latency (parse + admission + fairness queue + apply
// fan-out + fsync, as a tenant experiences it).
func BenchmarkCtlplaneDaemon(b *testing.B) {
	res := benchDrive(b, drive.Config{
		K: 4, Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
		Churn: workload.ChurnConfig{Events: 400, PoolSize: 40, Tenants: 200, Seed: 5},
		HTTP:  true, Workers: 1,
	})
	p50, p99 := res.Latency.Percentile(50)/1e6, res.Latency.Percentile(99)/1e6
	b.ReportMetric(p50, "p50-ms")
	b.ReportMetric(p99, "p99-ms")
	b.Logf("daemon churn: %d events over HTTP, %.0f updates/s, p50 %.2fms p99 %.2fms",
		res.Latency.N(), res.UpdatesPerSec(), p50, p99)
}

// BenchmarkAblationNoImplicationPruning — DESIGN.md §5.1: effect of the
// domain-specific BDD reduction on table entries and compile time.
func BenchmarkAblationNoImplicationPruning(b *testing.B) {
	runExperiment(b, experiments.AblationPruning)
}

// BenchmarkAblationFieldOrder — DESIGN.md §5.2: BDD variable-order
// heuristics.
func BenchmarkAblationFieldOrder(b *testing.B) {
	runExperiment(b, experiments.AblationFieldOrder)
}

// BenchmarkAblationExactMatch — DESIGN.md §5.3: the §V-E TCAM-saving
// optimizations.
func BenchmarkAblationExactMatch(b *testing.B) {
	runExperiment(b, experiments.AblationExactMatch)
}

// BenchmarkNetcheck — the network-wide delivery verifier (DESIGN.md
// §13) over a fat-tree(4) deployment of a mixed 24-subscription
// workload. Each iteration symbolically propagates every packet class
// from every ingress and discharges the black-hole / loop / exact-
// delivery obligations; the classes metric records the per-run class
// count so verifier cost stays attributable.
// BenchmarkFitcheck — the static pipeline-layout analyzer over a
// compiled 2000-rule program: placement, per-dimension verdicts, and
// the per-table headroom search (the dominant cost — one binary search
// of re-placements per table). Guarded in perf-guard via
// perf-baseline.json.
func BenchmarkFitcheck(b *testing.B) {
	p := subscription.NewParser(formats.ITCH)
	syms := workload.DefaultSymbols(500)
	r := rand.New(rand.NewSource(11))
	rules := make([]*subscription.Rule, 0, 2000)
	for i := 0; i < 2000; i++ {
		src := fmt.Sprintf("stock == %s and price > %d: fwd(%d)",
			syms[r.Intn(len(syms))], (r.Intn(20)+1)*100, i%48)
		rule, err := p.ParseRule(src, i)
		if err != nil {
			b.Fatal(err)
		}
		rules = append(rules, rule)
	}
	prog, err := compiler.Compile(formats.ITCH, rules, compiler.Options{LastHop: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var tables int
	for i := 0; i < b.N; i++ {
		l := fitcheck.Analyze(prog, fitcheck.Options{})
		if !l.Fits() {
			b.Fatalf("benchmark program overflows the default budget: %v", l.Findings)
		}
		tables = len(l.Tables)
	}
	b.ReportMetric(float64(tables), "tables")
}

func BenchmarkNetcheck(b *testing.B) {
	net := topology.MustFatTree(4)
	p := subscription.NewParser(formats.ITCH)
	syms := workload.DefaultSymbols(64)
	r := rand.New(rand.NewSource(5))
	subs := make([][]subscription.Expr, len(net.Hosts))
	var flat []netcheck.Subscription
	for i := 0; i < 24; i++ {
		host := r.Intn(len(net.Hosts))
		e, err := p.ParseFilter(fmt.Sprintf("stock == %s and price > %d",
			syms[r.Intn(len(syms))], (r.Intn(9)+1)*100))
		if err != nil {
			b.Fatal(err)
		}
		subs[host] = append(subs[host], e)
		flat = append(flat, netcheck.Subscription{ID: i, Host: host, Expr: e})
	}
	d, err := controller.Deploy(net, formats.ITCH, subs,
		controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10}})
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*prove.Program, len(d.Programs))
	for i, prog := range d.Programs {
		if prog == nil {
			continue
		}
		if progs[i], err = prog.ProveIR(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var classes int
	for i := 0; i < b.N; i++ {
		res, err := netcheck.CheckFatTree(net, formats.ITCH, progs, flat, netcheck.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatalf("clean deployment has findings: %+v", res.Findings)
		}
		classes = res.Classes
	}
	b.ReportMetric(float64(classes), "classes")
}

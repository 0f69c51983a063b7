package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// warmFrames is the length of the untimed warm-up pass (one lap of the
// replay pool, so itch_replay starts timed with its cache full);
// verifyFrames of them are checked against the oracle.
const (
	warmFrames   = 1 << 14
	verifyFrames = 1 << 12
)

// dataplane is one set-up dataplane workload: generated inputs, the
// compiled program, the switch under test and the caller's loop state.
type dataplane struct {
	dataplaneSpec
	ruleText []string
	rules    []*subscription.Rule
	static   *compiler.StaticPipeline
	prog     *compiler.Program
	sw       *pipeline.Switch

	// Closed-loop caller state: the frames to send, the virtual clock,
	// and the batch buffer ProcessBatch reads.
	feed
	now  time.Duration
	pkts []*pipeline.Packet

	// sink keeps the consumed deliveries observable so the compiler
	// cannot drop the reads.
	sink int64
}

// setupDataplane builds everything the timed phase needs from the seed:
// rule text → parse → full compile, frame generation + encode, the
// switch, and the warm-up pass. observe, when set, sees every warm-up
// batch before its buffers are reused.
func setupDataplane(ds dataplaneSpec, seed int64, observe func(pkts []*pipeline.Packet, out [][]pipeline.Delivery, now time.Duration)) (*dataplane, error) {
	d := &dataplane{dataplaneSpec: ds}
	d.ruleText = ds.rules(rand.New(rand.NewSource(seed)))
	parser := subscription.NewParser(ds.spec)
	for i, src := range d.ruleText {
		rule, err := parser.ParseRule(src, i)
		if err != nil {
			return nil, fmt.Errorf("rule %d %q: %w", i, src, err)
		}
		d.rules = append(d.rules, rule)
	}
	var err error
	if d.prog, err = compiler.Compile(ds.spec, d.rules, compiler.Options{LastHop: true}); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if d.static, err = compiler.GenerateStatic(ds.spec, compiler.StaticOptions{}); err != nil {
		return nil, fmt.Errorf("static pipeline: %w", err)
	}
	d.parse = ds.parser
	if d.pool, err = ds.frames(seed, ds.poolFrames); err != nil {
		return nil, err
	}
	if d.sw, err = pipeline.NewSwitch("bench", d.static, d.prog, pipeline.WithWorkers(1)); err != nil {
		return nil, fmt.Errorf("switch: %w", err)
	}
	d.pkts = make([]*pipeline.Packet, batchFrames)
	for i := range d.pkts {
		d.pkts[i] = &pipeline.Packet{In: ingressPort}
	}
	for sent := 0; sent < warmFrames && sent < d.pool.len(); sent += batchFrames {
		now := d.now
		out := d.step(nil, -1)
		if observe != nil {
			observe(d.pkts, out, now)
		}
		d.consume(out)
	}
	return d, nil
}

// step sends the next batch: decode each frame, then one ProcessBatch.
// The returned deliveries live in the switch's buffers until the next
// call.
func (d *dataplane) step(tr *tracer, parent int32) [][]pipeline.Delivery {
	sp := tr.begin("decode", parent)
	for _, pkt := range d.pkts {
		frame, msgs := d.decoded()
		pkt.Msgs, pkt.Bytes = msgs, len(frame)
	}
	tr.end(sp)
	sp = tr.begin("process", parent)
	out := d.sw.ProcessBatch(d.pkts, d.now)
	tr.end(sp)
	d.now += d.clockStep
	return out
}

// consume reads every delivery the way a caller forwarding them would:
// each egress replica's port and message list.
func (d *dataplane) consume(out [][]pipeline.Delivery) {
	var sum int64
	for _, ds := range out {
		for i := range ds {
			sum += int64(ds[i].Port) + int64(len(ds[i].Msgs))
		}
	}
	d.sink += sum
}

// batch is the workload's batchFunc.
func (d *dataplane) batch(tr *tracer, parent int32) {
	out := d.step(tr, parent)
	sp := tr.begin("consume", parent)
	d.consume(out)
	tr.end(sp)
}

// predecode parses frames from the head of the pool until it holds
// enough messages to overflow the leaf cache four times (or the pool
// ends), so loops over pre-decoded packets keep the workload's
// working-set-to-cache ratio.
func (d *dataplane) predecode() ([]*pipeline.Packet, error) {
	const wantMsgs = 4 * 65536
	var pkts []*pipeline.Packet
	msgs := 0
	for i := 0; i < d.pool.len() && msgs < wantMsgs; i++ {
		frame := d.pool.frame(i)
		ms, err := d.parser.Parse(frame)
		if err != nil {
			return nil, fmt.Errorf("decode frame %d: %w", i, err)
		}
		pkts = append(pkts, &pipeline.Packet{In: ingressPort, Msgs: ms, Bytes: len(frame)})
		msgs += len(ms)
	}
	// Whole batches only, so every ProcessBatch call has the same size.
	return pkts[:len(pkts)/batchFrames*batchFrames], nil
}

// batchLoopResult is one timed ProcessBatch loop over pre-decoded
// packets.
type batchLoopResult struct {
	pkts, msgs int
	cost       measured
	batchNS    []int64
}

// batchLoop replays pre-decoded packets through ProcessBatch on sw for
// dur, after one untimed lap that fills caches and sizes arenas.
func (d *dataplane) batchLoop(sw *pipeline.Switch, pkts []*pipeline.Packet, dur time.Duration) batchLoopResult {
	res := batchLoopResult{batchNS: make([]int64, 0, 1<<16)}
	now := time.Duration(0)
	pos := 0
	next := func() []*pipeline.Packet {
		batch := pkts[pos : pos+batchFrames]
		if pos += batchFrames; pos == len(pkts) {
			pos = 0
		}
		d.consume(sw.ProcessBatch(batch, now))
		now += d.clockStep
		return batch
	}
	for range pkts[:len(pkts)/batchFrames] {
		next()
	}
	res.cost = measure(func() {
		start := time.Now()
		for last := start; last.Sub(start) < dur; {
			for _, p := range next() {
				res.msgs += len(p.Msgs)
			}
			res.pkts += batchFrames
			t := time.Now()
			res.batchNS = append(res.batchNS, int64(t.Sub(last)))
			last = t
		}
	})
	return res
}

// runDataplaneLayers is the traced run: the wire loop with and without
// spans, then one micro-loop per layer.
func runDataplaneLayers(d *dataplane, seconds float64, tr *tracer, res *results, warm pipeline.StatsSnapshot) error {
	before := d.sw.Stats()
	if err := runWireTraced(seconds*0.5, tr, d.batch, res); err != nil {
		return err
	}
	after := d.sw.Stats()
	if probes := after.LeafHits - before.LeafHits + after.LeafMisses - before.LeafMisses; probes > 0 {
		misses := after.LeafMisses - before.LeafMisses
		res.set("pipeline.leaf_hit_ratio", float64(after.LeafHits-before.LeafHits)/float64(probes), int(probes))
		if misses > 0 {
			res.set("pipeline.leaf_fill_ratio", float64(after.LeafFills-before.LeafFills)/float64(misses), int(misses))
		}
	}

	// Work counts over the warm-up pass: a fixed frame sequence, so they
	// repeat exactly for a seed.
	res.set("pipeline.msgs_per_pkt", float64(warm.Messages)/float64(warm.Packets), int(warm.Packets))
	res.set("pipeline.deliveries_per_pkt", float64(warm.Deliveries)/float64(warm.Packets), int(warm.Packets))
	res.set("pipeline.state_updates_per_msg", float64(warm.StateUpdates)/float64(warm.Messages), int(warm.Messages))
	res.set("pipeline.recirculations", float64(warm.Recirculations), int(warm.Packets))

	slice := secs(seconds * 0.05)

	// packet: the format's Decode* over the raw pool.
	sp := tr.begin("layer:packet.decode", -1)
	var decMsgs int
	dec := measure(func() {
		for start := time.Now(); time.Since(start) < slice; {
			for i := 0; i < batchFrames; i++ {
				_, msgs := d.decoded()
				decMsgs += len(msgs)
			}
		}
	})
	tr.end(sp)
	res.set("packet.decode_ns_per_msg", float64(dec.elapsed)/float64(decMsgs), decMsgs)
	res.set("packet.decode_allocs_per_msg", float64(dec.allocs)/float64(decMsgs), decMsgs)
	res.set("packet.decode_bytes_per_msg", float64(dec.bytes)/float64(decMsgs), decMsgs)

	// The full compile runs before the pre-decoded pool fills the heap.
	sp = tr.begin("layer:compile", -1)
	err := compileMetrics(d.spec, d.ruleText, d.prog, res)
	tr.end(sp)
	if err != nil {
		return err
	}

	pre, err := d.predecode()
	if err != nil {
		return err
	}
	// Loops over pre-decoded packets, each on a switch of its own.
	newSwitch := func(opts ...pipeline.Option) (*pipeline.Switch, error) {
		return pipeline.NewSwitch("bench-layer", d.static, d.prog, opts...)
	}
	loop := func(name string, opts ...pipeline.Option) (batchLoopResult, error) {
		sw, err := newSwitch(opts...)
		if err != nil {
			return batchLoopResult{}, err
		}
		sp := tr.begin("layer:pipeline."+name, -1)
		defer tr.end(sp)
		return d.batchLoop(sw, pre, slice), nil
	}

	// ProcessBatch as the wire loop runs it — the quantity the legacy
	// BENCH_switch.json records.
	b1, err := loop("batch", pipeline.WithWorkers(1))
	if err != nil {
		return err
	}
	mpps1 := float64(b1.pkts) / b1.cost.elapsed.Seconds() / 1e6
	res.set("pipeline.batch_ns_per_msg", float64(b1.cost.elapsed)/float64(b1.msgs), b1.msgs)
	res.set("pipeline.batch_mpps", mpps1, b1.pkts)
	res.set("pipeline.batch_allocs_per_pkt", float64(b1.cost.allocs)/float64(b1.pkts), b1.pkts)
	res.set("pipeline.batch_p99_us", quantile(nsToMS(b1.batchNS), 0.99)*1e3, len(b1.batchNS))

	// The same with the leaf cache off. Today that also turns the arena
	// fast path off, so this is the allocating per-packet path.
	nc, err := loop("nocache", pipeline.WithWorkers(1), pipeline.WithLeafCache(-1))
	if err != nil {
		return err
	}
	res.set("pipeline.nocache_ns_per_msg", float64(nc.cost.elapsed)/float64(nc.msgs), nc.msgs)

	// And across every core.
	bn, err := loop("scale", pipeline.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return err
	}
	res.set("pipeline.scale_ncpu_x", float64(bn.pkts)/bn.cost.elapsed.Seconds()/1e6/mpps1, bn.pkts)

	// The program's own parse+match glue: SetParser + ProcessBytes per
	// frame.
	swB, err := newSwitch(pipeline.WithWorkers(1))
	if err != nil {
		return err
	}
	swB.SetParser(d.parser)
	sp = tr.begin("layer:pipeline.bytes_path", -1)
	var bytesPkts int
	start := time.Now()
	for time.Since(start) < slice {
		for i := 0; i < batchFrames; i++ {
			ds, err := swB.ProcessBytes(d.frame(), ingressPort, 0)
			if err != nil {
				return fmt.Errorf("ProcessBytes: %w", err)
			}
			d.sink += int64(len(ds))
		}
		bytesPkts += batchFrames
	}
	bytesEl := time.Since(start)
	tr.end(sp)
	res.set("pipeline.bytes_path_ns_per_pkt", float64(bytesEl)/float64(bytesPkts), bytesPkts)

	sp = tr.begin("layer:pipeline.install", -1)
	us, n, err := installMedianUS(swB)
	tr.end(sp)
	if err != nil {
		return err
	}
	res.set("pipeline.install_us", us, n)

	// compiler: the bare table walk, no cache, no replication.
	st := pipeline.NewStateTable(d.prog).At(0)
	sp = tr.begin("layer:compiler.lookup", -1)
	var looked int
	pos := 0
	start = time.Now()
	for time.Since(start) < slice {
		for _, p := range pre[pos : pos+batchFrames] {
			for _, m := range p.Msgs {
				if le := d.prog.Lookup(m, st); le != nil {
					d.sink++
				}
			}
			looked += len(p.Msgs)
		}
		if pos += batchFrames; pos == len(pre) {
			pos = 0
		}
	}
	lookEl := time.Since(start)
	tr.end(sp)
	res.set("compiler.lookup_ns_per_msg", float64(lookEl)/float64(looked), looked)

	return nil
}

// compileMetrics times a full compile of ruleText stage by stage and
// records the sizes of what it produces.
func compileMetrics(sp *spec.Spec, ruleText []string, prog *compiler.Program, res *results) error {
	parser := subscription.NewParser(sp)
	rules := make([]*subscription.Rule, len(ruleText))
	t0 := time.Now()
	for i, src := range ruleText {
		rule, err := parser.ParseRule(src, i)
		if err != nil {
			return err
		}
		rules[i] = rule
	}
	res.set("subscription.parse_us_per_rule", float64(time.Since(t0))/1e3/float64(len(rules)), len(rules))
	t0 = time.Now()
	for _, rule := range rules {
		if _, err := subscription.NormalizeRule(rule); err != nil {
			return err
		}
	}
	res.set("subscription.normalize_us_per_rule", float64(time.Since(t0))/1e3/float64(len(rules)), len(rules))
	var err error
	c := measure(func() { _, err = compiler.Compile(sp, rules, compiler.Options{LastHop: true}) })
	if err != nil {
		return err
	}
	res.set("compiler.compile_ms", float64(c.elapsed)/1e6, 1)
	res.set("compiler.compile_allocs", float64(c.allocs), 1)
	res.set("compiler.compile_mb", float64(c.bytes)/1e6, 1)

	res.set("compiler.stages", float64(len(prog.Stages)), 1)
	res.set("compiler.entries", float64(prog.TotalEntries()), 1)
	res.set("compiler.max_state_fanout", float64(maxStateFanout(prog)), 1)
	res.set("bdd.nodes", float64(len(prog.BDD.Reachable())), 1)
	return nil
}

// maxStateFanout is the largest number of entries sharing one in-state
// in one stage: the length of Table.Next's linear scan.
func maxStateFanout(p *compiler.Program) int {
	most := 0
	for _, t := range p.Stages {
		per := make(map[compiler.StateID]int)
		for _, e := range t.Entries {
			per[e.In]++
			if per[e.In] > most {
				most = per[e.In]
			}
		}
	}
	return most
}

// inputDigest renders a set-up's generated inputs for the determinism
// check: rule text and every frame byte.
func (d *dataplane) inputDigest() string {
	return strings.Join(d.ruleText, "\n") + fmt.Sprint(d.pool.off) + string(d.pool.buf)
}

// installMedianUS times Switch.Install of prog: the epoch swap an update
// pays once per affected switch.
func installMedianUS(sw *pipeline.Switch) (float64, int, error) {
	prog := sw.Program()
	us := make([]float64, 31)
	for i := range us {
		t0 := time.Now()
		if err := sw.Install(prog); err != nil {
			return 0, 0, fmt.Errorf("install: %w", err)
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), len(us), nil
}

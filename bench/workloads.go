package main

import (
	"fmt"
	"math/rand"
	"time"

	"camus/internal/formats"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/workload"
)

// workloadNames is the fixed list, in the order -workload all runs it.
var workloadNames = []string{"itch_replay", "itch_fresh", "itch_stateful", "int_range", "ctl_churn"}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// traced selects the traced run and its per-layer metrics; tracePath,
	// when set, is where its spans are written.
	traced    bool
	tracePath string
	// start is when the process started: the first set-up is timed from
	// it.
	start time.Time
	// small cuts every pool 16× for the smoke test.
	small bool
	// tmpDir holds the daemon's event log; it must lie inside the
	// checkout.
	tmpDir string
}

func (c config) scaled(n int) int {
	if c.small {
		return n / 16
	}
	return n
}

// batchFrames is the size of one ProcessBatch call on every dataplane
// workload.
const batchFrames = 256

// ingressPort is the port frames arrive on. Rules forward to ports
// 0..47, so ingress suppression never removes a delivery.
const ingressPort = 48

// framePool holds the generated wire frames back to back in one
// pointer-free buffer, so the pool adds nothing to GC mark work however
// large the working set is.
type framePool struct {
	buf []byte
	off []uint32 // frame i is buf[off[i]:off[i+1]]
}

func (p *framePool) add(frame []byte) {
	if len(p.off) == 0 {
		p.off = append(p.off, 0)
	}
	p.buf = append(p.buf, frame...)
	p.off = append(p.off, uint32(len(p.buf)))
}

func (p *framePool) len() int { return len(p.off) - 1 }

func (p *framePool) frame(i int) []byte { return p.buf[p.off[i]:p.off[i+1]:p.off[i+1]] }

// feed replays a pool round and round through the format's parser — the
// sending half of every closed loop.
type feed struct {
	pool       *framePool
	parse      pipeline.Parser
	pos        int
	decodeErrs int64
}

// frame returns the next frame.
func (f *feed) frame() []byte {
	frame := f.pool.frame(f.pos)
	if f.pos++; f.pos == f.pool.len() {
		f.pos = 0
	}
	return frame
}

// decoded returns the next frame and its messages; a frame that does not
// decode counts as failed and carries none.
func (f *feed) decoded() ([]byte, []*spec.Message) {
	frame := f.frame()
	msgs, err := f.parse.Parse(frame)
	if err != nil {
		f.decodeErrs++
		return frame, nil
	}
	return frame, msgs
}

// dataplaneSpec is the seed-independent description of a dataplane
// workload; dataplaneInputs (setup.go) is what a seed turns it into.
type dataplaneSpec struct {
	spec *spec.Spec
	// poolFrames is the number of distinct frames replayed.
	poolFrames int
	rules      func(r *rand.Rand) []string
	frames     func(seed int64, n int) (*framePool, error)
	parser     pipeline.Parser
	// clockStep advances the virtual clock per batch (stateful windows
	// tumble only when it is non-zero).
	clockStep time.Duration
}

var itchParser = pipeline.ParserFunc(formats.DecodeITCHFeed)

var intParser = pipeline.ParserFunc(func(data []byte) ([]*spec.Message, error) {
	m, err := formats.DecodeINT(data)
	if err != nil {
		return nil, err
	}
	return []*spec.Message{m}, nil
})

func dataplaneSpecFor(name string, cfg config) (dataplaneSpec, bool) {
	switch name {
	case "itch_replay":
		// ≈37k messages: the whole pool fits the 65536-entry leaf cache.
		return dataplaneSpec{spec: formats.ITCH, poolFrames: cfg.scaled(1 << 14),
			rules: itchRules(false), frames: itchFrames, parser: itchParser}, true
	case "itch_fresh":
		// ≈593k distinct messages, 9× the leaf cache: a replayed key has
		// been evicted long before it comes round again.
		return dataplaneSpec{spec: formats.ITCH, poolFrames: cfg.scaled(1 << 18),
			rules: itchRules(false), frames: itchFrames, parser: itchParser}, true
	case "itch_stateful":
		return dataplaneSpec{spec: formats.ITCH, poolFrames: cfg.scaled(1 << 14),
			rules: itchRules(true), frames: itchFrames, parser: itchParser,
			clockStep: 10 * time.Microsecond}, true
	case "int_range":
		// 8× the leaf cache, every flow_id distinct.
		return dataplaneSpec{spec: formats.INT, poolFrames: cfg.scaled(1 << 19),
			rules: intRules, frames: intFrames, parser: intParser}, true
	}
	return dataplaneSpec{}, false
}

// Rule sets keep one shape for every seed — which rule tests which field
// against which port never changes, and every threshold stays inside a
// band of its own — so the compiled tables have the same entry count and
// the walk the same length whatever the seed; the seed moves the
// constants inside their bands.

// itchRules: 500 rules over 100 symbols. The k-th rule of a symbol takes
// its price threshold from the k-th fifth of the price range, off a grid
// of ten points per fifth that all symbols share; the seed moves the
// grid points, not which rule uses which. With stateful set every 5th
// rule compares the windowed average instead (all five rules of symbols
// 0, 5, 10, ...).
func itchRules(stateful bool) func(r *rand.Rand) []string {
	return func(r *rand.Rand) []string {
		syms := workload.DefaultSymbols(100)
		var grid [5][10]int
		for k := range grid {
			for j := range grid[k] {
				grid[k][j] = 10 + 198*k + 19*j + r.Intn(19)
			}
		}
		out := make([]string, 500)
		for i := range out {
			k := i / 100
			p := grid[k][(i*7+k*3)%10]
			pred := fmt.Sprintf("price > %d", p)
			if stateful && i%5 == 0 {
				pred = fmt.Sprintf("avg(price, 100us) > %d", p)
			}
			out[i] = fmt.Sprintf("stock == %s and %s: fwd(%d)", syms[i%100], pred, i%48)
		}
		return out
	}
}

// itchFrames encodes the repository's synthetic Nasdaq feed: MoldUDP64
// datagrams carrying a Zipf-distributed 1–8 add-order messages.
func itchFrames(seed int64, n int) (*framePool, error) {
	feed := workload.ITCHFeed(workload.ITCHFeedConfig{
		Packets: n, Stocks: 100, BatchZipf: true, MaxBatch: 8, Seed: seed,
	})
	pool := &framePool{}
	for i, p := range feed {
		frame, err := formats.EncodeITCHFeed("CAMUSBENCH", uint64(i), p.Orders)
		if err != nil {
			return nil, fmt.Errorf("encode ITCH frame %d: %w", i, err)
		}
		pool.add(frame)
	}
	return pool, nil
}

// INT value ranges. Thresholds sit in the top of each range so a report
// matches fewer than two rules on average.
const (
	intSwitches   = 64
	intLatencyMax = 1000
	intDepthMax   = 64
	intPorts      = 32
)

// intRules: 1000 rules, three in four
//
//	switch_id == a and hop_latency > b and queue_depth > c
//
// (11–12 per switch) and one in four
//
//	egress_port == e and hop_latency > b
//
// with b on a 16-point grid shared by all switches (eight grid points
// per port) whose bands interleave with the per-switch ones, so every
// switch's latency stage splits into the same ranges in the same order
// and the last stage fans out over all 32 ports.
func intRules(r *rand.Rand) []string {
	grid := make([]int, 16)
	for g := range grid {
		grid[g] = 700 + 18*g + r.Intn(6)
	}
	out := make([]string, 1000)
	na, nb := 0, 0
	for i := range out {
		if i%4 == 3 {
			out[i] = fmt.Sprintf("egress_port == %d and hop_latency > %d: fwd(%d)",
				nb%intPorts, grid[(nb/intPorts+nb)%len(grid)], i%48)
			nb++
			continue
		}
		k := na / intSwitches // k-th rule of its switch, 0..11
		b := 706 + 18*k + r.Intn(6)
		c := 32 + 2*(k*5%12) + r.Intn(2)
		out[i] = fmt.Sprintf("switch_id == %d and hop_latency > %d and queue_depth > %d: fwd(%d)",
			na%intSwitches, b, c, i%48)
		na++
	}
	return out
}

// intFrames encodes one telemetry report per frame — the smallest
// packet the system carries — with a random 32-bit flow_id, so no two
// frames share a leaf-cache key.
func intFrames(seed int64, n int) (*framePool, error) {
	r := rand.New(rand.NewSource(seed))
	pool := &framePool{}
	for i := 0; i < n; i++ {
		frame, err := formats.EncodeINT(&formats.INTReport{
			FlowID:     int64(r.Uint32()),
			SwitchID:   int64(r.Intn(intSwitches)),
			HopLatency: int64(r.Intn(intLatencyMax)),
			QueueDepth: int64(r.Intn(intDepthMax)),
			EgressPort: int64(r.Intn(intPorts)),
			TstampNS:   int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("encode INT frame %d: %w", i, err)
		}
		pool.add(frame)
	}
	return pool, nil
}

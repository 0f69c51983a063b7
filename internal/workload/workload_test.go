package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/subscription"
)

var testSpec = spec.MustParse("itch", `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`)

func TestSienaDeterministic(t *testing.T) {
	cfg := SienaConfig{Spec: testSpec, Filters: 50, Seed: 42}
	a, err := Siena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Siena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("filter %d differs across runs: %s vs %s", i, a[i], b[i])
		}
	}
	c, err := Siena(SienaConfig{Spec: testSpec, Filters: 50, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].String() == c[i].String() {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical workloads")
	}
}

func TestSienaPredicateBounds(t *testing.T) {
	exprs, err := Siena(SienaConfig{
		Spec: testSpec, Filters: 200, MinPredicates: 2, MaxPredicates: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func(e subscription.Expr) int {
		conjs, err := subscription.Normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		return len(conjs[0])
	}
	for _, e := range exprs {
		if n := count(e); n < 2 || n > 3 {
			t.Errorf("filter %q has %d predicates", e, n)
		}
	}
}

// TestSienaCompiles: generated workloads must type-check and compile.
func TestSienaCompiles(t *testing.T) {
	rules, err := SienaRules(SienaConfig{Spec: testSpec, Filters: 300, Seed: 5}, 32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(testSpec, rules, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if p.TotalEntries() == 0 {
		t.Error("empty program")
	}
}

func TestSpreadOverHosts(t *testing.T) {
	exprs, err := Siena(SienaConfig{Spec: testSpec, Filters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byHost := SpreadOverHosts(exprs, 4)
	if len(byHost) != 4 {
		t.Fatalf("hosts = %d", len(byHost))
	}
	total := 0
	for _, s := range byHost {
		total += len(s)
	}
	if total != 10 {
		t.Errorf("spread lost filters: %d", total)
	}
	if len(byHost[0]) != 3 || len(byHost[3]) != 2 {
		t.Errorf("uneven spread: %d %d", len(byHost[0]), len(byHost[3]))
	}
}

func TestITCHFeedInterestFraction(t *testing.T) {
	pkts := ITCHFeed(ITCHFeedConfig{Packets: 20000, InterestFraction: 0.005, Seed: 3})
	if len(pkts) != 20000 {
		t.Fatalf("packets = %d", len(pkts))
	}
	interesting, total := 0, 0
	for _, p := range pkts {
		if len(p.Orders) != 1 {
			t.Fatalf("trace-like feed batched: %d orders", len(p.Orders))
		}
		total += len(p.Orders)
		interesting += p.Interesting
	}
	frac := float64(interesting) / float64(total)
	if frac < 0.002 || frac > 0.009 {
		t.Errorf("interest fraction = %.4f, want ≈0.005", frac)
	}
}

func TestITCHFeedBatching(t *testing.T) {
	pkts := ITCHFeed(ITCHFeedConfig{Packets: 5000, BatchZipf: true, InterestFraction: 0.05, Seed: 4})
	multi, total := 0, 0
	for _, p := range pkts {
		total += len(p.Orders)
		if len(p.Orders) > 1 {
			multi++
		}
		if len(p.Orders) < 1 || len(p.Orders) > 8 {
			t.Fatalf("batch size %d out of range", len(p.Orders))
		}
	}
	if multi == 0 {
		t.Error("Zipf feed produced no multi-message packets")
	}
	if total <= 5000 {
		t.Error("batched feed produced no extra messages")
	}
}

func TestINTStreamAnomalies(t *testing.T) {
	reports := INTStream(INTStreamConfig{Reports: 50000, Seed: 9})
	anomalous := 0
	for _, r := range reports {
		if r.HopLatency > 100 {
			anomalous++
		}
		if r.SwitchID < 0 || r.SwitchID >= 100 {
			t.Fatalf("switch id %d", r.SwitchID)
		}
	}
	frac := float64(anomalous) / float64(len(reports))
	if frac <= 0 || frac >= 0.01 {
		t.Errorf("anomaly fraction = %.4f, want <1%% and >0", frac)
	}
}

func TestHICNStreamHotCold(t *testing.T) {
	reqs := HICNStream(HICNConfig{Requests: 10000, HotIDs: 4, HotFraction: 0.8, Seed: 2})
	hot := 0
	for _, r := range reqs {
		if r.ContentID < 4 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("hot fraction = %.3f, want ≈0.8", frac)
	}
}

func TestASGraphShape(t *testing.T) {
	cfg := AS733Like(11).Scaled(10) // 647 nodes, 1323 edges
	g := ASGraph(cfg)
	if g.N != cfg.Nodes {
		t.Fatalf("nodes = %d, want %d", g.N, cfg.Nodes)
	}
	if !g.Connected() {
		t.Fatal("AS graph disconnected")
	}
	if e := g.Edges(); e < cfg.Edges*9/10 || e > cfg.Edges*11/10 {
		t.Errorf("edges = %d, want ≈%d", e, cfg.Edges)
	}
	// Power-law skew: the max degree should far exceed the mean.
	maxDeg, sumDeg := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / float64(g.N)
	if float64(maxDeg) < 8*mean {
		t.Errorf("degree skew too weak: max=%d mean=%.1f", maxDeg, mean)
	}
	// Determinism.
	g2 := ASGraph(cfg)
	if g2.Edges() != g.Edges() {
		t.Error("graph generation not deterministic")
	}
}

func TestChurnStream(t *testing.T) {
	cfg := ChurnConfig{
		Spec: testSpec, Hosts: 16, Events: 2000, Rate: 5000,
		AddFraction: 0.5, Seed: 9,
	}
	evs, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2000 {
		t.Fatalf("events = %d, want 2000", len(evs))
	}
	// Arrivals are monotone; removes always reference a live prior add
	// on the same host with the same filter.
	live := make(map[int]ChurnEvent)
	popularity := make(map[string]int) // adds per filter
	adds := 0
	var last time.Duration
	for i, ev := range evs {
		if ev.At < last {
			t.Fatalf("event %d: time went backwards (%v < %v)", i, ev.At, last)
		}
		last = ev.At
		if ev.Host < 0 || ev.Host >= cfg.Hosts {
			t.Fatalf("event %d: host %d out of range", i, ev.Host)
		}
		if ev.Filter == nil {
			t.Fatalf("event %d: nil filter", i)
		}
		if ev.Add {
			adds++
			popularity[ev.Filter.String()]++
			if _, dup := live[ev.Key]; dup {
				t.Fatalf("event %d: duplicate key %d", i, ev.Key)
			}
			live[ev.Key] = ev
		} else {
			prior, ok := live[ev.Key]
			if !ok {
				t.Fatalf("event %d: remove of unknown key %d", i, ev.Key)
			}
			if prior.Host != ev.Host || prior.Filter.String() != ev.Filter.String() {
				t.Fatalf("event %d: remove does not match its add", i)
			}
			delete(live, ev.Key)
		}
	}
	// The realized mix should be near the configured ratio.
	if frac := float64(adds) / float64(len(evs)); frac < 0.45 || frac > 0.65 {
		t.Errorf("add fraction %.2f far from 0.5", frac)
	}
	// Zipf popularity: the most popular filter should dominate the tail.
	top := 0
	for _, n := range popularity {
		if n > top {
			top = n
		}
	}
	if top < adds/10 {
		t.Errorf("no popular filter: top=%d of %d adds over %d distinct",
			top, adds, len(popularity))
	}
	// Determinism, arrival times included (the pins below omit At).
	if evs2, err := Churn(cfg); err != nil || fmt.Sprint(evs2) != fmt.Sprint(evs) {
		t.Fatalf("stream not deterministic (err %v)", err)
	}
}

// TestChurnStreamPins pins, by a SHA-256 over (Host, Add, Key, Filter,
// Tenant), the streams of serve-soak, BenchmarkCtlplaneDaemon,
// TestHTTPChurnSoakValidated and BenchmarkCoverChurn, as recorded when
// tenants were drawn by a separate generator.
func TestChurnStreamPins(t *testing.T) {
	for want, cfg := range map[string]ChurnConfig{
		"04bd0bbfd52c0a9d97b2c7aff194723fd0d5b50543a16461a7765035e4b0acd3": {Hosts: 16, Events: 1000, PoolSize: 64, CoverHeavy: true, Tenants: 1000, Seed: 7},
		"3ae87118d6096dc911b937aea06ad5600d9c01ee061f7ae5dfc200a4f0d64656": {Hosts: 16, Events: 400, PoolSize: 40, Tenants: 200, Seed: 5},
		"34e03626565b6270f3c9103f14c0be9c254386ccee1731a9a7629733886a65e2": {Hosts: 16, Events: 120, PoolSize: 24, Tenants: 40, Seed: 11},
		"7d37f42a4cff89c8d291268fcdfe7704ca1ad9c7937a8eeba5b4b77c7423f372": {Hosts: 4, Events: 600, PoolSize: 64, CoverHeavy: true, CoverDepth: 8, AddFraction: 0.7, Seed: 3},
	} {
		cfg.Spec = formats.ITCH
		evs, err := Churn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, ev := range evs {
			fmt.Fprintf(h, "%d %t %d %s %s\n", ev.Host, ev.Add, ev.Key, ev.Filter.String(), ev.Tenant)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("seed %d: stream digest %s, want %s", cfg.Seed, got, want)
		}
	}
}

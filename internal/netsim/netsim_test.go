package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"camus/internal/controller"
	"camus/internal/ctlplane"
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

func deploy(t testing.TB, subs [][]subscription.Expr, opts controller.Options) *Sim {
	t.Helper()
	net := topology.MustFatTree(4)
	d, err := controller.Deploy(net, itchSpec, subs, opts)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	sim, err := New(d)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sim
}

// TestEndToEndDelivery is the central routing property (DESIGN.md §6):
// every published message reaches exactly the set of subscribed hosts —
// no loss, no spurious delivery, no duplicates, no loops — under both
// policies, with and without approximation.
func TestEndToEndDelivery(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	net := topology.MustFatTree(4)
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			subs[h] = append(subs[h], filter(t, fmt.Sprintf(
				"stock == %s and price > %d", stocks[r.Intn(len(stocks))], r.Intn(80))))
		}
	}
	for _, policy := range []routing.Policy{routing.MemoryReduction, routing.TrafficReduction} {
		for _, alpha := range []int64{0, 10} {
			sim := deploy(t, subs, controller.Options{
				Routing: routing.Options{Policy: policy, Alpha: alpha},
			})
			for trial := 0; trial < 60; trial++ {
				pub := r.Intn(len(net.Hosts))
				m := msg(stocks[r.Intn(len(stocks))], int64(r.Intn(100)), 1)
				deliveries := sim.Publish(pub, []*spec.Message{m}, 64)

				// Ground truth: all subscribed hosts except the
				// publisher itself (Algorithm 1 never forwards back out
				// the ingress port).
				want := make(map[int]bool)
				for h := range subs {
					if h == pub {
						continue
					}
					for _, e := range subs[h] {
						if subscription.EvalExpr(e, m, nil) {
							want[h] = true
						}
					}
				}
				got := make(map[int]int)
				for _, d := range deliveries {
					got[d.Host] += len(d.Msgs)
					if d.Hops < 1 || d.Hops > 6 {
						t.Errorf("%v/α=%d: delivery with %d hops", policy, alpha, d.Hops)
					}
				}
				for h := range want {
					if got[h] != 1 {
						t.Fatalf("%v/α=%d trial %d: host %d got %d copies of %s, want 1 (publisher %d)",
							policy, alpha, trial, h, got[h], m, pub)
					}
				}
				for h, n := range got {
					if !want[h] {
						t.Fatalf("%v/α=%d trial %d: spurious delivery of %s to host %d (×%d)",
							policy, alpha, trial, m, h, n)
					}
				}
			}
			if sim.Traffic().Looped != 0 {
				t.Errorf("%v/α=%d: %d packets hit the hop limit", policy, alpha, sim.Traffic().Looped)
			}
		}
	}
}

// TestEndToEndK6: the delivery property holds on a larger (k=6,
// 45-switch, 54-host) fat tree as well.
func TestEndToEndK6(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	net := topology.MustFatTree(6)
	r := rand.New(rand.NewSource(8))
	stocks := []string{"GOOGL", "MSFT", "AAPL"}
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		if r.Intn(2) == 0 {
			subs[h] = []subscription.Expr{filter(t, fmt.Sprintf(
				"stock == %s and price > %d", stocks[r.Intn(3)], r.Intn(50)))}
		}
	}
	d, err := controller.Deploy(net, itchSpec, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		pub := r.Intn(len(net.Hosts))
		m := msg(stocks[r.Intn(3)], int64(r.Intn(60)), 1)
		got := make(map[int]int)
		for _, dl := range sim.Publish(pub, []*spec.Message{m}, 64) {
			got[dl.Host] += len(dl.Msgs)
		}
		for h := range subs {
			want := 0
			if h != pub {
				for _, e := range subs[h] {
					if subscription.EvalExpr(e, m, nil) {
						want = 1
					}
				}
			}
			if got[h] != want {
				t.Fatalf("k=6 trial %d: host %d got %d copies, want %d", trial, h, got[h], want)
			}
		}
	}
	if sim.Traffic().Looped != 0 {
		t.Errorf("loops on k=6: %d", sim.Traffic().Looped)
	}
}

// TestSelfDelivery: a host that subscribes to its own publications
// receives them via its ToR only (1 switch hop), not via the core.
func TestSelfDelivery(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{filter(t, "stock == GOOGL")}
	sim := deploy(t, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	// Host 1 shares host 0's ToR.
	out := sim.Publish(1, []*spec.Message{msg("GOOGL", 1, 1)}, 64)
	if len(out) != 1 || out[0].Host != 0 {
		t.Fatalf("deliveries = %+v", out)
	}
	if out[0].Hops != 1 {
		t.Errorf("rack-local delivery took %d hops, want 1", out[0].Hops)
	}
	if sim.Traffic().CorePackets != 0 {
		t.Errorf("TR: rack-local traffic hit the core %d times", sim.Traffic().CorePackets)
	}
}

// TestMRGeneratesCoreTraffic: MR floods unmatched traffic to the core
// while TR keeps it rack-local — the memory/traffic trade-off of §IV-C.
func TestMRGeneratesCoreTraffic(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{filter(t, "stock == GOOGL")}

	publish := func(policy routing.Policy) int64 {
		sim := deploy(t, subs, controller.Options{Routing: routing.Options{Policy: policy}})
		for i := 0; i < 20; i++ {
			// Traffic nobody outside the rack wants.
			sim.Publish(1, []*spec.Message{msg("ZZZ", 1, 1)}, 64)
		}
		return sim.Traffic().CorePackets
	}
	mr := publish(routing.MemoryReduction)
	tr := publish(routing.TrafficReduction)
	if mr == 0 {
		t.Error("MR produced no core traffic")
	}
	if tr != 0 {
		t.Errorf("TR produced %d core packets for unmatched traffic", tr)
	}
}

// TestAlphaExtraTraffic: approximation adds (bounded) spurious upward
// traffic but never drops matching messages; deliveries to subscribers
// stay exact because the last hop re-checks the exact filter.
func TestAlphaExtraTraffic(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	// Host 12 (another pod) wants price > 57.
	subs[12] = []subscription.Expr{filter(t, "price > 57")}
	sim := deploy(t, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
	})
	// price=55 matches the α-widened filter (price > 50) but not the
	// exact one: it must travel but NOT be delivered.
	out := sim.Publish(0, []*spec.Message{msg("X", 55, 1)}, 64)
	if len(out) != 0 {
		t.Fatalf("approximated traffic delivered: %+v", out)
	}
	if sim.Traffic().CorePackets == 0 {
		t.Error("approximated traffic did not cross the core (no extra traffic measured)")
	}
	// price=60 matches exactly → delivered.
	out = sim.Publish(0, []*spec.Message{msg("X", 60, 1)}, 64)
	if len(out) != 1 || out[0].Host != 12 {
		t.Fatalf("exact match lost: %+v", out)
	}
}

// TestMulticastFanOut: one publication to N subscribers crosses each
// link once (the switch replicates, not the publisher).
func TestMulticastFanOut(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := 1; h < len(net.Hosts); h++ {
		subs[h] = []subscription.Expr{filter(t, "stock == GOOGL")}
	}
	sim := deploy(t, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	out := sim.Publish(0, []*spec.Message{msg("GOOGL", 10, 1)}, 64)
	if len(out) != 15 {
		t.Fatalf("deliveries = %d, want 15", len(out))
	}
	// The publication must traverse each core switch at most once; with
	// 15 subscribers spread over 4 pods, core crossings stay bounded by
	// the pod count, far below per-subscriber unicast (15).
	if sim.Traffic().CorePackets > 4 {
		t.Errorf("core packets = %d; multicast should not fan out unicast copies", sim.Traffic().CorePackets)
	}
}

// TestBatchDeliveryInvariant: publishing a MoldUDP batch delivers each
// host exactly the union of messages it would receive if the messages
// were published individually (per-port pruning, §VI-A, composed with
// routing).
func TestBatchDeliveryInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	net := topology.MustFatTree(4)
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		if r.Intn(2) == 0 {
			subs[h] = []subscription.Expr{filter(t, fmt.Sprintf(
				"stock == %s and price > %d", stocks[r.Intn(4)], r.Intn(60)))}
		}
	}
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	for trial := 0; trial < 15; trial++ {
		pub := r.Intn(len(net.Hosts))
		batch := make([]*spec.Message, 1+r.Intn(6))
		for i := range batch {
			batch[i] = msg(stocks[r.Intn(4)], int64(r.Intn(80)), int64(i))
		}
		// Batched publish.
		simA := deploy(t, subs, opts)
		gotBatch := make(map[int][]string)
		for _, dl := range simA.Publish(pub, batch, 64*len(batch)) {
			for _, m := range dl.Msgs {
				v, _ := m.GetRef("shares") // unique per message in this test
				gotBatch[dl.Host] = append(gotBatch[dl.Host], fmt.Sprint(v.Int))
			}
		}
		// Individual publishes on a fresh simulator.
		simB := deploy(t, subs, opts)
		gotSingle := make(map[int][]string)
		for _, m := range batch {
			for _, dl := range simB.Publish(pub, []*spec.Message{m}, 64) {
				for _, mm := range dl.Msgs {
					v, _ := mm.GetRef("shares")
					gotSingle[dl.Host] = append(gotSingle[dl.Host], fmt.Sprint(v.Int))
				}
			}
		}
		for h := range net.Hosts {
			a := append([]string(nil), gotBatch[h]...)
			b := append([]string(nil), gotSingle[h]...)
			sort.Strings(a)
			sort.Strings(b)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("trial %d host %d: batch %v != singles %v", trial, h, a, b)
			}
		}
	}
}

// TestECMPFlowStability: with ECMP enabled, every packet of a flow takes
// the same up link, and different flows spread across links (§IV-C:
// "ECMP could be used for flow-based protocols").
func TestECMPFlowStability(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[15] = []subscription.Expr{filter(t, "stock == GOOGL")}
	sim := deploy(t, subs, controller.Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	sim.ECMP = true
	// The same flow must be deliverable repeatedly (path stable, no
	// loss); distinct flows must also all deliver.
	for flow := uint64(1); flow <= 8; flow++ {
		for i := 0; i < 5; i++ {
			pub := Publication{Host: 0, Msgs: []*spec.Message{msg("GOOGL", 1, 1)}, Bytes: 64, Flow: flow}
			out := sim.PublishBatchInto(new(Results), []Publication{pub})[0]
			if len(out) != 1 || out[0].Host != 15 {
				t.Fatalf("flow %d iteration %d: %+v", flow, i, out)
			}
		}
	}
}

// TestLiveMigration: dynamic reconfiguration (§VIII-G3) on one live
// simulator — a ctlplane.Service installs each subscription change into
// the running switches, and the deliveries follow it.
func TestLiveMigration(t *testing.T) {
	ropts := routing.Options{Policy: routing.TrafficReduction}
	sim := deploy(t, make([][]subscription.Expr, 16), controller.Options{Routing: ropts})
	svc, err := ctlplane.New(sim.Deployment.Network, itchSpec,
		ctlplane.WithRouting(ropts), ctlplane.WithInstallers(sim.Installers()...))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	googl := []*spec.Message{msg("GOOGL", 1, 1)}

	_, ids, err := svc.Subscribe(2, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	if out := sim.Publish(0, googl, 64); len(out) != 1 || out[0].Host != 2 {
		t.Fatalf("initial deliveries: %+v", out)
	}
	// Migrate the subscription to host 9 (ILA-style service move).
	if _, err := svc.Unsubscribe(2, ids); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Subscribe(9, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	if out := sim.Publish(0, googl, 64); len(out) != 1 || out[0].Host != 9 {
		t.Fatalf("post-migration deliveries: %+v", out)
	}
	if st := svc.Stats(); st.Installs == 0 || st.Deletes == 0 {
		t.Errorf("migration delta not reported: %+v", st)
	}
}

// TestLayerEntriesShape: TR stores more state than MR overall, and the
// controller's per-layer accounting is populated for all three layers.
func TestLayerEntriesShape(t *testing.T) {
	net := topology.MustFatTree(4)
	r := rand.New(rand.NewSource(3))
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		for i := 0; i < 4; i++ {
			subs[h] = append(subs[h], filter(t, fmt.Sprintf(
				"stock == S%d and price > %d and shares < %d",
				r.Intn(20), r.Intn(100), r.Intn(100))))
		}
	}
	opts := controller.Options{Routing: routing.Options{Policy: routing.MemoryReduction}}
	mr, err := controller.Deploy(net, itchSpec, subs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Routing.Policy = routing.TrafficReduction
	tr, err := controller.Deploy(net, itchSpec, subs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mrE, trE := mr.LayerEntries(), tr.LayerEntries()
	for _, l := range []topology.Layer{topology.ToR, topology.Agg, topology.Core} {
		if mrE[l] == 0 || trE[l] == 0 {
			t.Errorf("layer %v has zero entries: MR=%d TR=%d", l, mrE[l], trE[l])
		}
	}
	mrTotal := mrE[topology.ToR] + mrE[topology.Agg] + mrE[topology.Core]
	trTotal := trE[topology.ToR] + trE[topology.Agg] + trE[topology.Core]
	if trTotal <= mrTotal {
		t.Errorf("TR (%d entries) should use more memory than MR (%d)", trTotal, mrTotal)
	}
	total, byLayer := tr.CompileTime()
	if total <= 0 || byLayer[topology.ToR] <= 0 {
		t.Errorf("compile time not accounted: %v %v", total, byLayer)
	}
}

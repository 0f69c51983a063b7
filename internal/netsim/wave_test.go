package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"camus/internal/analysis/corrupt"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// refPublish is the forwarding loop the wave engine replaced, kept as its
// reference: one publication forwarded to completion as a per-packet BFS,
// one heap-fresh Switch.Process per hop, counters bumped per hop. It runs
// on a Sim of its own (s's switches, round-robin pointers and traffic
// counters), never on the one under test.
func refPublish(s *Sim, host int, msgs []*spec.Message, bytes int, flow uint64) []HostDelivery {
	type flight struct {
		sw, inPort int
		fromUp     bool
		msgs       []*spec.Message
		bytes      int
		latency    time.Duration
		hops       int
		flow       uint64
	}
	// resolve is the old resolvePort: up-port list rebuilt per call.
	resolve := func(tsw *topology.Switch, port int, f flight) *topology.Port {
		if port == routing.UpPort {
			if f.fromUp {
				return nil
			}
			ups := tsw.UpPorts()
			if len(ups) == 0 {
				return nil
			}
			var p topology.Port
			if s.ECMP {
				h := f.flow * 0xBF58476D1CE4E5B9
				p = ups[int(h>>32)%len(ups)]
			} else {
				n := s.upRR[tsw.ID].Add(1) - 1
				p = ups[int(n)%len(ups)]
			}
			return &p
		}
		if port < 0 || port >= len(tsw.Ports) {
			return nil
		}
		p := tsw.Ports[port]
		return &p
	}
	if flow == 0 {
		flow = uint64(host)*0x9E3779B97F4A7C15 + 1
	}
	swID, port := s.Deployment.Network.Access(host)
	queue := []flight{{sw: swID, inPort: port, msgs: msgs, bytes: bytes, latency: linkLatency, flow: flow}}
	var out []HostDelivery
	now := s.Clock()
	for head := 0; head < len(queue); head++ {
		f := queue[head]
		if f.hops >= hopLimit {
			s.traffic.looped.Add(1)
			continue
		}
		tsw := s.Deployment.Network.Switches[f.sw]
		s.traffic.linkPackets[tsw.Layer].Add(1)
		if tsw.Layer == topology.Core {
			s.traffic.corePackets.Add(1)
		}
		deliveries := s.Switches[f.sw].Process(&pipeline.Packet{In: f.inPort, Msgs: f.msgs, Bytes: f.bytes}, now)
		if len(deliveries) == 0 {
			s.traffic.dropped.Add(1)
			continue
		}
		for _, d := range deliveries {
			next := resolve(tsw, d.Port, f)
			if next == nil {
				continue
			}
			lat := f.latency + d.Latency + linkLatency
			if next.Kind == topology.PeerHost {
				out = append(out, HostDelivery{Host: next.PeerHostID, Msgs: d.Msgs, Latency: lat, Hops: f.hops + 1})
				continue
			}
			peer := s.Deployment.Network.Switches[next.PeerSwitch]
			queue = append(queue, flight{
				sw:      next.PeerSwitch,
				inPort:  next.PeerPort,
				fromUp:  peer.Ports[next.PeerPort].Kind == topology.PeerUp,
				msgs:    d.Msgs,
				bytes:   f.bytes * max(len(d.Msgs), 1) / max(len(f.msgs), 1),
				latency: lat,
				hops:    f.hops + 1,
				flow:    f.flow,
			})
		}
	}
	return out
}

// sameDeliveries compares two delivery lists in order: host, latency,
// hops, and the identical message pointers in the same order.
func sameDeliveries(a, b []HostDelivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Host != b[i].Host || a[i].Latency != b[i].Latency || a[i].Hops != b[i].Hops ||
			len(a[i].Msgs) != len(b[i].Msgs) {
			return false
		}
		for j := range a[i].Msgs {
			if a[i].Msgs[j] != b[i].Msgs[j] {
				return false
			}
		}
	}
	return true
}

// assertWaveMatchesRef publishes the batches through wave's engine,
// retaining every batch's results, and only then replays the same
// publications one by one through refPublish on ref and compares: a
// result recycled by a later batch, or by a later wave of its own batch,
// shows up as a divergence from the heap-fresh reference.
func assertWaveMatchesRef(t *testing.T, wave, ref *Sim, batches [][]Publication) {
	t.Helper()
	got := make([][][]HostDelivery, len(batches))
	for b, pubs := range batches {
		got[b] = wave.PublishBatch(pubs)
	}
	delivered := 0
	for b, pubs := range batches {
		if len(got[b]) != len(pubs) {
			t.Fatalf("batch %d: %d results for %d publications", b, len(got[b]), len(pubs))
		}
		for i, p := range pubs {
			want := refPublish(ref, p.Host, p.Msgs, p.Bytes, p.Flow)
			if !sameDeliveries(got[b][i], want) {
				t.Fatalf("batch %d pub %d (host %d, %d msgs):\nwave %+v\nref  %+v", b, i, p.Host, len(p.Msgs), got[b][i], want)
			}
			delivered += len(want)
		}
	}
	if wt, gt := ref.Traffic(), wave.Traffic(); !reflect.DeepEqual(wt, gt) {
		t.Fatalf("traffic diverged:\nwave %+v\nref  %+v", gt, wt)
	}
	if delivered == 0 {
		t.Fatal("workload delivered nothing")
	}
}

// waveWorkload builds `stock == S and price > P` subscriptions on about
// two hosts in three and batches of 1..6-message frames over all four
// symbols, so most replicas are pruned per port on the way down. The
// batches are one-element, 256-element and in-between sizes.
func waveWorkload(t *testing.T, net *topology.Network, seed int64) ([][]subscription.Expr, [][]Publication) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		for i := 0; i < r.Intn(3); i++ {
			subs[h] = append(subs[h], filter(t, fmt.Sprintf(
				"stock == %s and price > %d", stocks[r.Intn(len(stocks))], 10*r.Intn(8))))
		}
	}
	var batches [][]Publication
	for _, n := range []int{1, 256, 7, 1, 64} {
		pubs := make([]Publication, n)
		for i := range pubs {
			msgs := make([]*spec.Message, 1+r.Intn(6))
			for j := range msgs {
				msgs[j] = msg(stocks[r.Intn(len(stocks))], int64(r.Intn(100)), int64(j))
			}
			pubs[i] = Publication{Host: r.Intn(len(net.Hosts)), Msgs: msgs, Bytes: 64 * len(msgs)}
			if r.Intn(4) == 0 {
				pubs[i].Flow = uint64(1 + r.Intn(5))
			}
		}
		batches = append(batches, pubs)
	}
	return subs, batches
}

// TestWaveMatchesReference is the differential test of the wave engine
// against the per-packet BFS it replaced: deliveries in order with
// latency and hops, and Traffic(), on fat-tree(4) and fat-tree(6), under
// TR and MR with α, round-robin and ECMP, with the wave sim's switches
// driven by it alone (workers=0) and shared with several other
// publishing goroutines (workers=3): a switch runs one call at a time, so
// its other callers' traffic must not reach the wave's results.
func TestWaveMatchesReference(t *testing.T) {
	for _, k := range []int{4, 6} {
		if k == 6 && testing.Short() {
			continue
		}
		net := topology.MustFatTree(k)
		subs, batches := waveWorkload(t, net, int64(100+k))
		for _, ropts := range []routing.Options{
			{Policy: routing.TrafficReduction},
			{Policy: routing.TrafficReduction, Alpha: 10},
			{Policy: routing.MemoryReduction, Alpha: 10},
		} {
			d, err := controller.Deploy(net, itchSpec, subs, controller.Options{Routing: ropts})
			if err != nil {
				t.Fatal(err)
			}
			for _, ecmp := range []bool{false, true} {
				for _, workers := range []int{0, 3} {
					t.Run(fmt.Sprintf("k%d/%s-a%d/ecmp=%v/workers=%d", k, ropts.Policy, ropts.Alpha, ecmp, workers), func(t *testing.T) {
						wave, ref := newSim(t, d), newSim(t, d)
						wave.ECMP, ref.ECMP = ecmp, ecmp
						done := make(chan struct{})
						var wg sync.WaitGroup
						for g := 0; g < workers; g++ {
							other := newSim(t, d)
							other.ECMP, other.Switches = ecmp, wave.Switches
							wg.Add(1)
							go func() {
								defer wg.Done()
								for i := g; ; i++ {
									select {
									case <-done:
										return
									default:
										other.PublishBatch(batches[i%len(batches)])
									}
								}
							}()
						}
						defer func() { close(done); wg.Wait() }()
						assertWaveMatchesRef(t, wave, ref, batches)
					})
				}
			}
		}
	}
}

func newSim(t *testing.T, d *controller.Deployment) *Sim {
	t.Helper()
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWaveMatchesReferenceKnownBad: the engines also agree on networks
// that misbehave — the replay test's corrupted ToR (a spurious port on
// one leaf) and a controller defect that points an aggregation switch's
// entry down the wrong link.
func TestWaveMatchesReferenceKnownBad(t *testing.T) {
	net := topology.MustFatTree(4)
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[0] = []subscription.Expr{filter(t, "stock == GOOGL and price > 50")}
	subs[1] = []subscription.Expr{filter(t, "stock == MSFT")}
	ropts := routing.Options{Policy: routing.TrafficReduction}
	var batches [][]Publication
	for _, n := range []int{1, 256} {
		pubs := make([]Publication, n)
		for i := range pubs {
			pubs[i] = Publication{
				Host:  (5 * i) % len(net.Hosts),
				Msgs:  []*spec.Message{msg("GOOGL", int64(40+i%30), 1), msg("MSFT", 10, 2), msg("FB", 10, 3)},
				Bytes: 192,
			}
		}
		batches = append(batches, pubs)
	}

	t.Run("spurious-leaf-port", func(t *testing.T) {
		bad, err := controller.Deploy(net, itchSpec, subs, controller.Options{Routing: ropts})
		if err != nil {
			t.Fatal(err)
		}
		tor, _ := net.Access(0)
		_, port1 := net.Access(1)
		seedSpuriousPort(t, bad.Programs[tor], port1)
		assertWaveMatchesRef(t, newSim(t, bad), newSim(t, bad), batches)
	})
	t.Run("redirect-port", func(t *testing.T) {
		res, err := routing.ComputeFatTree(net, subs, ropts)
		if err != nil {
			t.Fatal(err)
		}
		agg := net.Switches[0].UpPorts()[0].PeerSwitch
		mut := corrupt.NetMutation{Op: "redirect-port", Switch: agg, Port: 0, ToPort: 1, FilterID: 0}
		if err := mut.Apply(res); err != nil {
			t.Fatal(err)
		}
		bad, err := controller.Compile(itchSpec, net, res, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertWaveMatchesRef(t, newSim(t, bad), newSim(t, bad), batches)
	})
}

// TestWaveMatchesReferenceLoop sends packets round a hand-installed ring
// until the hop limit kills them: pod 0's two edge switches forward LOOP
// to a host and up both physical links by explicit port number, its two
// aggregation switches forward it down both. Ingress suppression prunes
// the way back (which is why the ring needs four switches, not two), so
// every packet circles edge, aggregation, edge, aggregation in one of the
// two directions, and every ring switch is visited in every other wave
// of a batch — its Results recycled eight times while earlier replicas
// are still in flight or already delivered. Looped, Dropped and the
// deliveries must equal the reference's.
func TestWaveMatchesReferenceLoop(t *testing.T) {
	net := topology.MustFatTree(4)
	d, err := controller.Deploy(net, itchSpec, make([][]subscription.Expr, len(net.Hosts)), controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	program := func(ports ...int) *compiler.Program {
		var src string
		for _, p := range ports {
			src += fmt.Sprintf("stock == LOOP: fwd(%d)\n", p)
		}
		rs, err := subscription.NewParser(itchSpec).ParseRules(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.Compile(itchSpec, rs, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	wave, ref := newSim(t, d), newSim(t, d)
	edge0, _ := net.Access(0)
	edge1, _ := net.Access(2)
	ups := net.Switches[edge0].UpPorts()
	if edge1 == edge0 || len(ups) != 2 {
		t.Fatalf("unexpected pod shape: edges %d, %d, %d up ports", edge0, edge1, len(ups))
	}
	for _, s := range []*Sim{wave, ref} {
		for _, e := range []int{edge0, edge1} {
			// Host port 1, and both up links.
			if err := s.Switches[e].Install(program(1, ups[0].Index, ups[1].Index)); err != nil {
				t.Fatal(err)
			}
		}
		for _, up := range ups {
			// Down to both edges of the pod.
			if err := s.Switches[up.PeerSwitch].Install(program(0, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var batches [][]Publication
	for _, n := range []int{1, 256} {
		pubs := make([]Publication, n)
		for i := range pubs {
			msgs := []*spec.Message{msg("LOOP", int64(i), 1), msg("STAY", int64(i), 2)}
			switch i % 4 {
			case 1:
				msgs = msgs[1:] // matches nothing: dropped at the edge
			case 2:
				msgs = append(msgs, msg("LOOP", int64(i), 3))
			}
			// Hosts 0-3 sit on the ring's edges; host 4's edge has an empty
			// program.
			pubs[i] = Publication{Host: i % 5, Msgs: msgs, Bytes: 64 * len(msgs)}
		}
		batches = append(batches, pubs)
	}
	assertWaveMatchesRef(t, wave, ref, batches)
	tr := wave.Traffic()
	if tr.Looped == 0 || tr.Dropped == 0 {
		t.Fatalf("loop workload neither looped nor dropped: %+v", tr)
	}
}

// TestPublishBatchAllocs pins what a publisher allocates once its wave
// scratch is warm: the three result slices per batch, whatever its size,
// plus the one-element batch for a single Publish.
func TestPublishBatchAllocs(t *testing.T) {
	net := topology.MustFatTree(4)
	subs, batches := waveWorkload(t, net, 7)
	sim := deploy(t, subs, controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10}})
	pubs := batches[1]
	if len(pubs) != 256 {
		t.Fatalf("batch of %d", len(pubs))
	}
	sim.PublishBatch(pubs) // warm the scratch and every switch's Results
	if got := testing.AllocsPerRun(20, func() { sim.PublishBatch(pubs) }); got > 3 {
		t.Errorf("256-publication batch: %.1f allocs, want <= 3", got)
	}
	one := pubs[0]
	for _, p := range pubs {
		if len(sim.Publish(p.Host, p.Msgs, p.Bytes)) > 0 {
			one = p
			break
		}
	}
	if got := testing.AllocsPerRun(20, func() { sim.Publish(one.Host, one.Msgs, one.Bytes) }); got > 4 {
		t.Errorf("one-packet Publish: %.1f allocs, want <= 4", got)
	}
}

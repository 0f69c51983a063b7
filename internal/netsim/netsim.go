// Package netsim is the event-driven network simulator standing in for
// the paper's Tofino testbed and Mininet emulation: it instantiates one
// software switch (internal/pipeline) per topology switch, forwards
// publications wave by wave — every packet one hop from the publishers,
// then every packet two hops out, each switch handed its share of a wave
// as one pipeline batch — resolves the logical up port, and accounts
// deliveries, latency, and per-layer traffic.
//
// The simulator is concurrency-safe: traffic counters and the
// round-robin up-port pointers are atomics, the pipeline switches are
// themselves concurrent, and each batch works in a wave scratch of its
// own, so goroutines may publish side by side and beside Install. The
// results follow pipeline's contract: PublishBatchInto lays a batch's
// deliveries out in a caller-owned Results, valid until that Results is
// passed again; PublishBatch uses the Sim's own Results, recycled by the
// next PublishBatch; Publish returns heap-fresh results the caller may
// keep.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/topology"
)

// HostDelivery is one message batch arriving at a host.
type HostDelivery struct {
	Host    int
	Msgs    []*spec.Message
	Latency time.Duration // network transit time, publisher to host
	Hops    int
}

// TrafficStats is an immutable snapshot of link traversals per layer
// boundary — the Fig. 13d extra-traffic metric counts packets crossing
// core links. Obtain one via Sim.Traffic().
type TrafficStats struct {
	// LinkPackets counts packets entering switches of each layer.
	LinkPackets map[topology.Layer]int64
	// CorePackets counts packets traversing core switches.
	CorePackets int64
	// Dropped counts packets that matched nothing at some switch.
	Dropped int64
	// Looped counts packets killed by the hop limit (must stay 0).
	Looped int64
	// BatchFallbacks counts PublishBatch calls that found the Sim's
	// Results busy and laid their deliveries out in a fresh one.
	BatchFallbacks int64
}

// numLayers sizes the per-layer counter block (ToR, Agg, Core).
const numLayers = int(topology.Core) + 1

// trafficCounters is the live, atomically-updated form of TrafficStats.
type trafficCounters struct {
	linkPackets [numLayers]atomic.Int64
	corePackets atomic.Int64
	dropped     atomic.Int64
	looped      atomic.Int64
	fallbacks   atomic.Int64
}

func (t *trafficCounters) snapshot() TrafficStats {
	out := TrafficStats{
		LinkPackets:    make(map[topology.Layer]int64, numLayers),
		CorePackets:    t.corePackets.Load(),
		Dropped:        t.dropped.Load(),
		Looped:         t.looped.Load(),
		BatchFallbacks: t.fallbacks.Load(),
	}
	for l := 0; l < numLayers; l++ {
		if n := t.linkPackets[l].Load(); n != 0 {
			out.LinkPackets[topology.Layer(l)] = n
		}
	}
	return out
}

const (
	// linkLatency is the per-hop wire latency.
	linkLatency = 500 * time.Nanosecond
	// hopLimit kills packets after this many switch hops (loop guard).
	hopLimit = 16
)

// Sim is a running simulation of a deployment. ECMP is set before
// traffic starts; traffic accounting is read via the Traffic() snapshot.
type Sim struct {
	Deployment *controller.Deployment
	Switches   []*pipeline.Switch
	// ECMP selects the physical up link by hashing the packet's flow
	// instead of round-robin, keeping a flow on one path (§IV-C: "ECMP
	// could be used for flow-based protocols").
	ECMP bool

	traffic trafficCounters
	// ups lists each switch's physical up links, in port order.
	ups [][]topology.Port
	// upRR is the per-switch round-robin pointer for resolving the
	// logical up port to a physical up link (§IV-C: "Camus actually
	// chooses one of the corresponding physical ports, at random or
	// round-robin").
	upRR []atomic.Int64

	// free holds the wave scratches not in use. freeMu guards only the
	// list: a publisher pops one, forwards its batch unlocked, pushes it
	// back, so concurrent publishers neither serialize nor share buffers.
	freeMu sync.Mutex
	free   []*waveScratch

	// batch is the Sim-owned Results PublishBatch lays its deliveries out
	// in. A call that finds it busy falls back to a fresh Results, as
	// pipeline's ProcessBatch does, rather than recycle a concurrent
	// caller's unread results or queue behind its whole batch.
	batch struct {
		mu  sync.Mutex
		res Results
	}
}

// New builds a simulator from a deployment.
func New(d *controller.Deployment) (*Sim, error) {
	s := &Sim{
		Deployment: d,
		Switches:   make([]*pipeline.Switch, len(d.Network.Switches)),
		ups:        make([][]topology.Port, len(d.Network.Switches)),
		upRR:       make([]atomic.Int64, len(d.Network.Switches)),
	}
	for _, tsw := range d.Network.Switches {
		sw, err := pipeline.NewSwitch(tsw.Name, d.Static, d.Programs[tsw.ID])
		if err != nil {
			return nil, fmt.Errorf("netsim: switch %s: %w", tsw.Name, err)
		}
		s.Switches[tsw.ID] = sw
		s.ups[tsw.ID] = tsw.UpPorts()
	}
	return s, nil
}

// Installers adapts the sim's switches to the control-plane apply
// interface (ctlplane.WithInstallers), so a live ctlplane.Service
// can hot-swap programs on the running simulation.
func (s *Sim) Installers() []ctlplane.Installer {
	out := make([]ctlplane.Installer, len(s.Switches))
	for i, sw := range s.Switches {
		out[i] = sw
	}
	return out
}

// Traffic returns a snapshot of the traffic counters.
func (s *Sim) Traffic() TrafficStats { return s.traffic.snapshot() }

// Publication is one host's packet injection, the unit PublishBatch
// forwards.
type Publication struct {
	// Host is the publishing host.
	Host int
	// Msgs are the application messages in the packet.
	Msgs []*spec.Message
	// Bytes is the wire size (traffic accounting).
	Bytes int
	// Flow optionally pins the ECMP flow identity (0 hashes from Host).
	Flow uint64
}

// Publish injects a packet from a host and forwards it to completion,
// returning every host delivery. Processing is synchronous at time 0:
// the simulator keeps no clock (switch transit latencies are summed
// into the per-delivery latency only). It is a batch of one, laid out in
// a Results of its own, so what it returns is heap-fresh and the
// caller's to keep; its ECMP flow identity hashes from the publisher (a
// Publication's Flow pins another, through PublishBatchInto).
func (s *Sim) Publish(host int, msgs []*spec.Message, bytes int) []HostDelivery {
	var res Results
	return s.PublishBatchInto(&res, []Publication{{Host: host, Msgs: msgs, Bytes: bytes}})[0]
}

// Results is the caller-owned output of PublishBatchInto: the
// per-publication index, the host deliveries and their message
// pointers. Everything a call returns lives in the Results it was given
// and is valid until that Results is passed to PublishBatchInto again.
// Its slices grow to the largest batch seen and are never shrunk. The
// zero value is ready to use; a Results must not be shared by
// concurrent calls.
type Results struct {
	out  [][]HostDelivery
	dels []HostDelivery
	msgs []*spec.Message
}

// PublishBatch is PublishBatchInto on the Sim's own Results.
//
// Reuse contract: the returned slices are recycled by the *next*
// PublishBatch call from any goroutine — results are valid until then.
// Concurrent PublishBatch calls are safe: a call that finds the Sim's
// Results in use lays its deliveries out in a fresh one (counted in
// TrafficStats.BatchFallbacks), whose results are the caller's alone.
// Goroutines that publish side by side and read or keep what they get
// should each bring their own Results to PublishBatchInto.
func (s *Sim) PublishBatch(pubs []Publication) [][]HostDelivery {
	b := &s.batch
	if !b.mu.TryLock() {
		s.traffic.fallbacks.Add(1)
		return s.PublishBatchInto(new(Results), pubs)
	}
	defer b.mu.Unlock()
	return s.PublishBatchInto(&b.res, pubs)
}

// PublishBatchInto injects independent publications and returns each
// one's host deliveries, indexed like pubs and laid out in res (see
// Results for their lifetime) — the same deliveries, in the same order,
// with the same latencies, hops and traffic counts as publishing them
// one after another. Safe for concurrent use with distinct Results; once
// res and the wave scratch have grown to the batch, a call allocates
// nothing.
//
// The batch advances in waves, one per hop level: a wave groups the
// packets in flight by the switch they stand at, hands each switch its
// group as one pipeline batch, then expands the results in queue order
// into host deliveries and the next wave. Grouping is stable and the
// queue is publication-major, so each switch sees its packets — and the
// round-robin up-port pointer its requests — in publication order, as a
// sequential publisher would present them. What a batch does reorder is
// one switch's visits across hop levels (all of hop h before any of hop
// h+1, where a sequential publisher finishes publication i first), which
// only a stateful program — registers updated by one packet and read by
// the next within the batch — can observe.
func (s *Sim) PublishBatchInto(res *Results, pubs []Publication) [][]HostDelivery {
	sc := s.takeScratch()
	sc.inject(s, pubs)
	for hop := 0; len(sc.cur) > 0; hop++ {
		if hop >= hopLimit {
			sc.tally.looped += int64(len(sc.cur))
			break
		}
		sc.group(s)
		sc.visit(s)
		sc.expand(s, hop)
		sc.cur, sc.next = sc.next, sc.cur[:0]
	}
	s.traffic.add(&sc.tally)
	out := sc.deliveries(res, len(pubs))
	s.putScratch(sc)
	return out
}

// inFlight is a packet positioned at a switch ingress.
type inFlight struct {
	pub     int32 // index of the publication it descends from
	sw      int32
	inPort  int32
	slot    int32 // index in its switch's group of the current wave
	fromUp  bool  // arrived via one of the switch's up ports
	msgs    []*spec.Message
	bytes   int
	latency time.Duration
	flow    uint64 // ECMP flow hash
}

// hostHit is a host delivery found by a wave, its messages still in the
// scratch arena.
type hostHit struct {
	pub int32
	HostDelivery
}

// trafficTally is one batch's traffic, committed to the sim's counters
// once.
type trafficTally struct {
	linkPackets [numLayers]int64
	dropped     int64
	looped      int64
}

func (t *trafficCounters) add(d *trafficTally) {
	for l, n := range d.linkPackets {
		t.linkPackets[l].Add(n)
	}
	t.corePackets.Add(d.linkPackets[topology.Core])
	t.dropped.Add(d.dropped)
	t.looped.Add(d.looped)
}

// waveScratch is everything one PublishBatchInto call recycles. Nothing
// in it outlives the call: deliveries() copies what the caller reads into
// its Results.
type waveScratch struct {
	cur, next []inFlight
	// The current wave by switch: active lists the switches with packets,
	// count and base delimit each one's group in pkts, outs holds what its
	// pipeline batch returned, res is the Results it emitted into.
	active []int32
	count  []int32
	base   []int32
	outs   [][][]pipeline.Delivery
	res    []pipeline.Results
	// pkts[i] == &slab[i], always.
	slab []pipeline.Packet
	pkts []*pipeline.Packet
	// msgs is the arena a replica's message list is copied into before
	// the switch that emitted it is visited again and recycles its
	// Results. Append-only within a batch; growth leaves earlier slices
	// on the old backing array, which stays valid.
	msgs  []*spec.Message
	hits  []hostHit
	first []int32 // per publication: its first slot in the result
	tally trafficTally
}

func (s *Sim) takeScratch() *waveScratch {
	s.freeMu.Lock()
	var sc *waveScratch
	if n := len(s.free); n > 0 {
		sc, s.free = s.free[n-1], s.free[:n-1]
	}
	s.freeMu.Unlock()
	if sc == nil {
		n := len(s.Switches)
		sc = &waveScratch{
			count: make([]int32, n),
			base:  make([]int32, n),
			outs:  make([][][]pipeline.Delivery, n),
			res:   make([]pipeline.Results, n),
		}
	}
	return sc
}

func (s *Sim) putScratch(sc *waveScratch) {
	s.freeMu.Lock()
	s.free = append(s.free, sc)
	s.freeMu.Unlock()
}

// inject resets the scratch and queues wave 0: each publication at its
// access switch.
func (sc *waveScratch) inject(s *Sim, pubs []Publication) {
	sc.cur, sc.next = sc.cur[:0], sc.next[:0]
	sc.msgs, sc.hits = sc.msgs[:0], sc.hits[:0]
	sc.tally = trafficTally{}
	for i, p := range pubs {
		flow := p.Flow
		if flow == 0 {
			flow = uint64(p.Host)*0x9E3779B97F4A7C15 + 1
		}
		sw, port := s.Deployment.Network.Access(p.Host)
		sc.cur = append(sc.cur, inFlight{
			pub: int32(i), sw: int32(sw), inPort: int32(port),
			msgs: p.Msgs, bytes: p.Bytes, latency: linkLatency, flow: flow,
		})
	}
}

// group sorts the wave by switch (stable counting sort) into pkts and
// counts the link traversals.
func (sc *waveScratch) group(s *Sim) {
	for _, sw := range sc.active {
		sc.count[sw] = 0
	}
	sc.active = sc.active[:0]
	for i := range sc.cur {
		sw := sc.cur[i].sw
		if sc.count[sw] == 0 {
			sc.active = append(sc.active, sw)
		}
		sc.cur[i].slot = sc.count[sw]
		sc.count[sw]++
	}
	var pos int32
	for _, sw := range sc.active {
		sc.base[sw] = pos
		pos += sc.count[sw]
		sc.tally.linkPackets[s.Deployment.Network.Switches[sw].Layer] += int64(sc.count[sw])
	}
	if len(sc.slab) < len(sc.cur) {
		sc.slab = make([]pipeline.Packet, 2*len(sc.cur))
		sc.pkts = make([]*pipeline.Packet, len(sc.slab))
		for i := range sc.slab {
			sc.pkts[i] = &sc.slab[i]
		}
	}
	for i := range sc.cur {
		f := &sc.cur[i]
		sc.slab[sc.base[f.sw]+f.slot] = pipeline.Packet{In: int(f.inPort), Msgs: f.msgs, Bytes: f.bytes}
	}
}

// visit makes the wave's one pipeline call per switch, at time 0 (the
// simulator keeps no clock). No lock is held: each switch emits into
// this scratch's Results for it.
func (sc *waveScratch) visit(s *Sim) {
	for _, sw := range sc.active {
		group := sc.pkts[sc.base[sw] : sc.base[sw]+sc.count[sw]]
		sc.outs[sw] = s.Switches[sw].ProcessBatchInto(&sc.res[sw], group, 0)
	}
}

// expand turns the wave's deliveries, in queue order, into host hits and
// the next wave.
func (sc *waveScratch) expand(s *Sim, hop int) {
	switches := s.Deployment.Network.Switches
	for i := range sc.cur {
		f := &sc.cur[i]
		deliveries := sc.outs[f.sw][f.slot]
		if len(deliveries) == 0 {
			sc.tally.dropped++
			continue
		}
		for _, d := range deliveries {
			next, ok := s.resolvePort(switches[f.sw], d.Port, f)
			if !ok {
				continue
			}
			n := len(sc.msgs)
			sc.msgs = append(sc.msgs, d.Msgs...)
			msgs := sc.msgs[n:len(sc.msgs):len(sc.msgs)]
			lat := f.latency + d.Latency + linkLatency
			if next.Kind == topology.PeerHost {
				sc.hits = append(sc.hits, hostHit{f.pub, HostDelivery{
					Host: next.PeerHostID, Msgs: msgs, Latency: lat, Hops: hop + 1,
				}})
				continue
			}
			sc.next = append(sc.next, inFlight{
				pub:     f.pub,
				sw:      int32(next.PeerSwitch),
				inPort:  int32(next.PeerPort),
				fromUp:  switches[next.PeerSwitch].Ports[next.PeerPort].Kind == topology.PeerUp,
				msgs:    msgs,
				bytes:   f.bytes * max(len(d.Msgs), 1) / max(len(f.msgs), 1),
				latency: lat,
				flow:    f.flow,
			})
		}
	}
}

// resolvePort maps a forwarding decision to a physical port. The logical
// up port (routing.UpPort) resolves round-robin over the physical up
// links, and is suppressed for packets that arrived from above (§IV-C:
// "a packet received on one of the upward ports is never forwarded to
// the up port", which keeps hierarchical routing loop-free).
func (s *Sim) resolvePort(tsw *topology.Switch, port int, f *inFlight) (topology.Port, bool) {
	if port == routing.UpPort {
		ups := s.ups[tsw.ID]
		if f.fromUp || len(ups) == 0 {
			return topology.Port{}, false
		}
		if s.ECMP {
			// Flow-hash path selection: one flow, one path.
			h := f.flow * 0xBF58476D1CE4E5B9
			return ups[int(h>>32)%len(ups)], true
		}
		n := s.upRR[tsw.ID].Add(1) - 1
		return ups[int(n)%len(ups)], true
	}
	if port < 0 || port >= len(tsw.Ports) {
		return topology.Port{}, false
	}
	return tsw.Ports[port], true
}

// deliveries lays the batch's host hits out by publication — a stable
// counting sort, so each publication keeps wave-then-queue order — into
// res: the index, one delivery slice and one message slice.
func (sc *waveScratch) deliveries(res *Results, pubs int) [][]HostDelivery {
	out := resize(&res.out, pubs)
	clear(out)
	if len(sc.hits) == 0 {
		return out
	}
	first := resize(&sc.first, pubs+1)
	clear(first)
	msgs := 0
	for i := range sc.hits {
		first[sc.hits[i].pub+1]++
		msgs += len(sc.hits[i].Msgs)
	}
	for p := 0; p < pubs; p++ {
		first[p+1] += first[p]
	}
	flat := resize(&res.dels, len(sc.hits))
	for p := 0; p < pubs; p++ {
		if lo, hi := first[p], first[p+1]; lo < hi {
			out[p] = flat[lo:hi:hi]
		}
	}
	// first[p] now walks publication p's slots.
	for i := range sc.hits {
		h := &sc.hits[i]
		flat[first[h.pub]] = h.HostDelivery
		first[h.pub]++
	}
	kept := resize(&res.msgs, msgs)
	for i := range flat {
		c := copy(kept, flat[i].Msgs)
		flat[i].Msgs, kept = kept[:c:c], kept[c:]
	}
	return out
}

// resize returns the first n elements of *buf, capped at n, growing its
// backing array only when it is too short.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n:n]
}

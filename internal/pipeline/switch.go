package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Packet is a network packet traversing the switch: one or more
// application messages batched into a single datagram (e.g. MoldUDP
// carrying several ITCH messages, §VI).
type Packet struct {
	// In is the ingress port.
	In int
	// Msgs are the decoded application messages, in wire order.
	Msgs []*spec.Message
	// Bytes is the wire size (for traffic accounting); zero is allowed.
	Bytes int
	// Flow optionally identifies the packet's stream for stream
	// subscriptions (§VII-B). The first packet of a flow carries the
	// application header (Msgs non-empty) and installs the flow's
	// forwarding decision; header-less continuation packets (Msgs empty,
	// Flow set) reuse it.
	Flow FlowKey
}

// Delivery is one egress packet: the replica for a port after per-port
// message pruning (§VI-A).
type Delivery struct {
	// Port is the egress port.
	Port int
	// Msgs are the messages that matched subscriptions on this port, in
	// wire order (the pruned replica).
	Msgs []*spec.Message
	// Latency is the switch transit time for this replica, including
	// recirculation passes.
	Latency time.Duration
}

// CustomActionFunc handles a non-fwd action (e.g. answerDNS). It may
// return extra deliveries (crafted response packets). Handlers run on
// whichever worker shard processes the packet, so they must be safe for
// concurrent invocation when the switch runs more than one worker.
type CustomActionFunc func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery

// The switch model's fixed, Tofino-like figures.
const (
	// baseLatency is the one-pass pipeline transit time. The paper
	// reports pipeline latency under 1µs (§VIII-F1).
	baseLatency = 600 * time.Nanosecond
	// recirculationLatency is the added cost of one recirculation pass
	// (§VI-B).
	recirculationLatency = 400 * time.Nanosecond
	// flowCacheSize bounds the stream-subscription cache (§VII-B),
	// totalled across worker shards.
	flowCacheSize = 65536
	// flowTTL expires idle streams.
	flowTTL = 30 * time.Second
)

// epoch is one immutable (Program, StateTable) generation. Install
// publishes a new epoch with a single atomic pointer swap, so packet
// workers always observe a consistent program/state pair and never a
// half-updated switch.
type epoch struct {
	gen   uint64
	prog  *compiler.Program
	state *StateTable
}

// Switch is a software Camus switch: a static pipeline bound to a
// compiled program, with stateful registers and custom action handlers.
//
// The dataplane is sharded: each worker shard owns a private flow-cache
// partition and stats block, flows hash to a fixed shard, and the
// installed (Program, StateTable) pair is swapped atomically by
// Install. Process and ProcessBatch may therefore be called from many
// goroutines concurrently, including concurrently with Install.
// Configuration (SetParser, HandleCustom) is not synchronized and must
// complete before traffic starts.
type Switch struct {
	// ID names the switch (diagnostics, netsim).
	ID string

	static  *compiler.StaticPipeline
	cfg     config
	epoch   atomic.Pointer[epoch]
	shards  []*shard
	customs map[string]CustomActionFunc
	parser  Parser

	// installMu serializes control-plane updates (Install) so epoch
	// generations advance monotonically.
	installMu sync.Mutex

	// batch is the switch-owned Results ProcessBatch emits into; see the
	// ProcessBatch reuse contract.
	batch batchScratch
}

// NewSwitch builds a switch from a static pipeline, a compiled program
// and functional options — the one way to configure a dataplane. By
// default it runs one worker shard and drops packets bound back out
// their ingress port.
func NewSwitch(id string, static *compiler.StaticPipeline, prog *compiler.Program, opts ...Option) (*Switch, error) {
	if prog == nil {
		return nil, fmt.Errorf("pipeline: NewSwitch: nil program")
	}
	if static != nil {
		if err := static.Validate(prog); err != nil {
			return nil, err
		}
	}
	cfg := config{DropOnIngressPort: true}
	for _, fn := range opts {
		fn(&cfg)
	}
	cfg.Workers = max(cfg.Workers, 1)
	s := &Switch{
		ID:      id,
		static:  static,
		cfg:     cfg,
		customs: make(map[string]CustomActionFunc),
	}
	perShard := (flowCacheSize + cfg.Workers - 1) / cfg.Workers
	s.shards = make([]*shard, cfg.Workers)
	for i := range s.shards {
		s.shards[i] = &shard{flows: newFlowCache(perShard, flowTTL)}
	}
	s.epoch.Store(&epoch{prog: prog, state: NewStateTable(prog)})
	return s, nil
}

// Workers reports the number of dataplane shards.
func (s *Switch) Workers() int { return len(s.shards) }

// Program returns the currently-installed dynamic configuration.
func (s *Switch) Program() *compiler.Program { return s.epoch.Load().prog }

// State returns the stateful registers of the current epoch.
func (s *Switch) State() *StateTable { return s.epoch.Load().state }

// Stats returns a snapshot of the dataplane counters, summed across
// worker shards.
func (s *Switch) Stats() StatsSnapshot {
	var t StatsSnapshot
	for _, sh := range s.shards {
		t = t.add(sh.stats.snapshot())
	}
	return t
}

// ResetStats zeroes every shard's counters.
func (s *Switch) ResetStats() {
	for _, sh := range s.shards {
		sh.stats.reset()
	}
}

// Install replaces the dynamic program (a control-plane rule update,
// §VIII-G3) with a single atomic epoch swap: in-flight packets finish
// against the epoch they loaded, later packets see the new program.
// Registers are re-linked; windows restart. The swap is also the whole
// flow-cache invalidation: every entry carries the generation it was
// written under and misses under any other, so a decision compiled from
// the outgoing program can never forward a packet — continuation packets
// re-miss until their stream's next header packet installs a fresh
// decision (§VII-B) — and Install touches no shard.
func (s *Switch) Install(prog *compiler.Program) error {
	if prog == nil {
		return fmt.Errorf("pipeline: Install: nil program")
	}
	if s.static != nil {
		if err := s.static.Validate(prog); err != nil {
			return err
		}
	}
	s.installMu.Lock()
	s.epoch.Store(&epoch{gen: s.epoch.Load().gen + 1, prog: prog, state: NewStateTable(prog)})
	s.installMu.Unlock()
	return nil
}

// HandleCustom registers a handler for a custom action name. Call
// before traffic starts.
func (s *Switch) HandleCustom(name string, fn CustomActionFunc) {
	s.customs[name] = fn
}

// Process runs a packet through the pipeline at virtual time now and
// returns the egress deliveries. Safe for concurrent use; the packet is
// executed on the shard its flow hashes to (flow-less packets use
// shard 0 — use ProcessBatch to spread those across workers). The
// returned deliveries are heap-fresh: callers (replay, examples) may
// retain them indefinitely.
func (s *Switch) Process(pkt *Packet, now time.Duration) []Delivery {
	pkts, out := [1]*Packet{pkt}, [1][]Delivery{}
	s.runOn(s.shards[s.shardIndex(pkt.Flow)], pkts[:], nil, out[:], now, nil)
	return out[0]
}

// run is one call's pass over a shard: the epoch it loaded, the
// workspace it acquired, where it emits, and the stats and custom hits
// it accumulates on the stack until the call ends.
type run struct {
	ep  *epoch
	sh  *shard
	ws  *workspace
	now time.Duration
	// owned: ws is sh's own and sh.mu is held for the whole run.
	owned bool
	// emit is the caller's arena for this shard; nil emits heap-fresh
	// slices (Process).
	emit *emitArena
	// regs reads the epoch's registers at now; nil when it has none.
	regs    subscription.StateReader
	stats   StatsSnapshot
	customs []customHit
}

// customHit defers a matched custom action until the shard lock is
// released: handlers are user code and may re-enter the switch.
type customHit struct {
	pkt int // index into the run's packets
	act subscription.Action
	m   *spec.Message
}

// runOn executes pkts (those idxs selects; nil = all) on shard sh and
// stores each packet's deliveries in out, indexed like pkts, emitting
// into em (reset first; nil = heap-fresh). It is the body of both
// Process and ProcessBatchInto.
func (s *Switch) runOn(sh *shard, pkts []*Packet, idxs []int32, out [][]Delivery, now time.Duration, em *emitArena) {
	r := run{ep: s.epoch.Load(), sh: sh, now: now, emit: em}
	r.ws, r.owned = sh.acquire()
	if !r.owned {
		r.stats.PrivateRuns++
	}
	if em != nil {
		em.dels.reset()
		em.msgs.reset()
	}
	if len(r.ep.state.regs) > 0 {
		r.ws.regs = stateAt{t: r.ep.state, now: now}
		r.regs = &r.ws.regs
	}
	n := len(pkts)
	if idxs != nil {
		n = len(idxs)
	}
	for j := 0; j < n; j++ {
		i := j
		if idxs != nil {
			i = int(idxs[j])
		}
		out[i] = s.packet(&r, pkts[i], i)
	}
	if r.owned {
		sh.mu.Unlock()
	}
	// Custom deliveries append onto a capacity-clamped slice, so they
	// copy out of the arena rather than overwrite a neighbour.
	for _, ch := range r.customs {
		if fn, ok := s.customs[ch.act.Name]; ok {
			extra := fn(ch.act, ch.m, pkts[ch.pkt])
			out[ch.pkt] = append(out[ch.pkt], extra...)
			r.stats.Deliveries += int64(len(extra))
		}
	}
	sh.stats.commit(r.stats)
}

// packet is the run-to-completion core every packet takes (§VI): the
// ingress pass evaluates each message and collects a port set; the
// crossbar replicates the packet once per egress port; egress prunes
// each replica to the messages that matched on that port (§VI-A).
// Stateful predicates (§II), stream decisions (§VII-B) and recirculation
// (§VI-B) happen inside this one pass. i is the packet's index in the
// run, recorded with deferred custom hits.
func (s *Switch) packet(r *run, pkt *Packet, i int) []Delivery {
	ep, ws, st := r.ep, r.ws, &r.stats
	st.Packets++
	st.BytesIn += int64(pkt.Bytes)
	ws.n, ws.total = 0, 0

	if len(pkt.Msgs) == 0 && pkt.Flow != 0 {
		// Stream continuation: no application header, forward per the
		// decision cached by the stream's first packet (§VII-B).
		r.lockFlows()
		acts, ok := r.sh.flows.lookup(pkt.Flow, r.now, ep.gen)
		r.unlockFlows()
		if !ok {
			st.FlowMisses++
			return nil
		}
		st.FlowHits++
		for _, port := range acts.Ports {
			if !(s.cfg.DropOnIngressPort && port == pkt.In) {
				ws.bucket(port)
			}
		}
	}

	// Batches deeper than the parse budget recirculate (§VI-B).
	latency := baseLatency
	if s.static != nil && s.static.MaxParsedMessages > 0 {
		if extra := (len(pkt.Msgs) - 1) / s.static.MaxParsedMessages; extra > 0 {
			st.Recirculations += int64(extra)
			latency += time.Duration(extra) * recirculationLatency
		}
	}

	ws.flowPorts = ws.flowPorts[:0]
	for _, m := range pkt.Msgs {
		st.Messages++
		le := ep.prog.Lookup(m, r.regs)
		if le == nil {
			continue
		}
		// State updates fire for every message whose stateless context
		// matched, before forwarding semantics are applied.
		for _, key := range le.Updates {
			ep.state.Update(key, m, r.now)
		}
		st.StateUpdates += int64(len(le.Updates))
		ports, custom := le.Actions.Ports, le.Actions.Custom
		if len(ports)+len(custom) == 0 {
			continue
		}
		st.Matched++
		if pkt.Flow != 0 {
			// The cached stream decision keeps the full port set;
			// ingress suppression re-applies per continuation packet.
			ws.addFlowPorts(ports)
		}
		for _, port := range ports {
			if !(s.cfg.DropOnIngressPort && port == pkt.In) {
				b := ws.bucket(port)
				b.msgs = append(b.msgs, m)
				ws.total++
			}
		}
		for _, act := range custom {
			r.customs = append(r.customs, customHit{pkt: i, act: act, m: m})
		}
	}

	// Stream subscriptions: the header-bearing packet installs the
	// stream's merged port decision for its continuations (§VII-B),
	// tagged with the epoch it was compiled under; install clones the
	// workspace's port set.
	if pkt.Flow != 0 && len(pkt.Msgs) > 0 {
		r.lockFlows()
		r.sh.flows.install(pkt.Flow, subscription.ActionSet{Ports: ws.flowPorts}, r.now, ep.gen)
		r.unlockFlows()
	}

	// Crossbar + egress: one pruned replica per port, in port order,
	// copied out of the bucket scratch.
	if ws.n == 0 {
		return nil
	}
	ws.sort()
	var out []Delivery
	var flat []*spec.Message
	if em := r.emit; em == nil {
		out, flat = make([]Delivery, ws.n), make([]*spec.Message, ws.total)
	} else {
		out, flat = em.dels.alloc(ws.n), em.msgs.alloc(ws.total)
	}
	for k := range out {
		b := &ws.buckets[k]
		c := copy(flat, b.msgs)
		out[k] = Delivery{Port: b.port, Msgs: flat[:c:c], Latency: latency}
		flat = flat[c:]
		// Pruned replica bytes scale with the surviving message share;
		// a continuation replica carries the whole packet.
		bytes := pkt.Bytes
		if len(pkt.Msgs) > 0 {
			bytes = pkt.Bytes * c / len(pkt.Msgs)
		}
		st.BytesOut += int64(bytes)
	}
	st.Deliveries += int64(len(out))
	return out
}

// EvalMessage evaluates a single message (diagnostics / examples).
func (s *Switch) EvalMessage(m *spec.Message, now time.Duration) subscription.ActionSet {
	ep := s.epoch.Load()
	return ep.prog.Eval(m, ep.state.At(now))
}

func (s *Switch) String() string {
	prog := s.Program()
	return fmt.Sprintf("switch %s: %d stages, %d entries, %s",
		s.ID, len(prog.Stages)+1, prog.TotalEntries(), prog.Resources)
}

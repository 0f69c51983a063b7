package pipeline

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
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
// the calling goroutine once the switch lock is released, so they may
// re-enter the switch (Process, ProcessBatch, Install) and must be safe
// for concurrent invocation when several goroutines drive the switch.
type CustomActionFunc func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery

// The switch model's fixed, Tofino-like figures.
const (
	// baseLatency is the one-pass pipeline transit time. The paper
	// reports pipeline latency under 1µs (§VIII-F1).
	baseLatency = 600 * time.Nanosecond
	// recirculationLatency is the added cost of one recirculation pass
	// (§VI-B).
	recirculationLatency = 400 * time.Nanosecond
	// flowCacheSize bounds the stream-subscription cache (§VII-B).
	flowCacheSize = 65536
	// flowTTL expires idle streams.
	flowTTL = 30 * time.Second
)

// Switch is a software Camus switch: a static pipeline bound to a
// compiled program, with stateful registers and custom action handlers.
//
// The dataplane is one run-to-completion core (§VI) behind one lock: a
// call holds it while its packets run, so calls from many goroutines
// take turns, and Install swaps the program and its registers under it,
// between two calls, as a chip writes its tables between packets.
// Process, ProcessBatch and Install may therefore be called from many
// goroutines concurrently. Configuration (SetParser, HandleCustom) is
// not synchronized and must complete before traffic starts.
type Switch struct {
	// ID names the switch (diagnostics, netsim).
	ID string

	static  *compiler.StaticPipeline
	cfg     config
	customs map[string]CustomActionFunc
	parser  Parser

	// mu guards everything below; a run holds it from start to end.
	mu sync.Mutex
	// gen counts Installs; flow-cache entries are tagged with it.
	gen   uint64
	prog  *compiler.Program
	state *StateTable
	stats StatsSnapshot
	flows *flowCache
	ws    workspace

	// batch is the switch-owned Results ProcessBatch emits into; see the
	// ProcessBatch reuse contract.
	batch batchScratch
}

// NewSwitch builds a switch from a static pipeline, a compiled program
// and functional options — the one way to configure a dataplane. By
// default it drops packets bound back out their ingress port.
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
	s := &Switch{
		ID:      id,
		static:  static,
		cfg:     cfg,
		customs: make(map[string]CustomActionFunc),
		prog:    prog,
		state:   NewStateTable(prog),
		flows:   newFlowCache(flowCacheSize, flowTTL),
	}
	return s, nil
}

// Program returns the currently-installed dynamic configuration.
func (s *Switch) Program() *compiler.Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prog
}

// Registers returns the value of every stateful register at virtual
// time now (diagnostics). Reading rolls tumbling windows, so it runs
// under the switch lock like a packet.
func (s *Switch) Registers(now time.Duration) map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.snapshot(now)
}

// Stats returns a snapshot of the dataplane counters.
func (s *Switch) Stats() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters.
func (s *Switch) ResetStats() {
	s.mu.Lock()
	s.stats = StatsSnapshot{}
	s.mu.Unlock()
}

// count adds counts taken outside a run (parse errors, batch fallbacks,
// custom-handler deliveries) to the counters.
func (s *Switch) count(d StatsSnapshot) {
	s.mu.Lock()
	s.stats = s.stats.add(d)
	s.mu.Unlock()
}

// Install replaces the dynamic program (a control-plane rule update,
// §VIII-G3). It validates outside the switch lock and swaps under it,
// so it is a barrier: it waits for the call in flight, if any, and once
// it returns every packet runs the new program. Registers carry over
// (StateTable.carry): an aggregate both programs hold keeps its window
// and counts, so a subscriber whose rule did not change does not see its
// state restart. The swap is also the whole flow-cache invalidation:
// every entry carries the generation it was written under and misses
// under any other, so a decision compiled from the outgoing program can
// never forward a packet — continuation packets re-miss until their
// stream's next header packet installs a fresh decision (§VII-B).
func (s *Switch) Install(prog *compiler.Program) error {
	if prog == nil {
		return fmt.Errorf("pipeline: Install: nil program")
	}
	if s.static != nil {
		if err := s.static.Validate(prog); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.gen++
	s.prog, s.state = prog, s.state.carry(prog)
	s.mu.Unlock()
	return nil
}

// HandleCustom registers a handler for a custom action name. Call
// before traffic starts.
func (s *Switch) HandleCustom(name string, fn CustomActionFunc) {
	s.customs[name] = fn
}

// Process runs a packet through the pipeline at virtual time now and
// returns the egress deliveries. Safe for concurrent use. The returned
// deliveries are heap-fresh: callers (replay, examples) may retain them
// indefinitely.
func (s *Switch) Process(pkt *Packet, now time.Duration) []Delivery {
	pkts, out := [1]*Packet{pkt}, [1][]Delivery{}
	s.execute(pkts[:], out[:], now, nil)
	return out[0]
}

// run is one call's pass over the switch: where it emits, and the stats
// and custom hits it accumulates on the stack until the call ends.
type run struct {
	now time.Duration
	// emit is the caller's arena; nil emits heap-fresh slices (Process).
	emit *emitArena
	// regs reads the switch's registers at now; nil when it has none.
	regs    subscription.StateReader
	stats   StatsSnapshot
	customs []customHit
}

// customHit defers a matched custom action until the switch lock is
// released: handlers are user code and may re-enter the switch.
type customHit struct {
	pkt int // index into the run's packets
	act subscription.Action
	m   *spec.Message
}

// execute runs pkts in order under the switch lock and stores each
// packet's deliveries in out, indexed like pkts, emitting into em (reset
// first; nil = heap-fresh). It is the body of both Process and
// ProcessBatchInto.
func (s *Switch) execute(pkts []*Packet, out [][]Delivery, now time.Duration, em *emitArena) {
	s.mu.Lock()
	r := run{now: now, emit: em}
	if em != nil {
		em.dels.reset()
		em.msgs.reset()
	}
	if len(s.state.regs) > 0 {
		s.ws.regs = stateAt{t: s.state, now: now}
		r.regs = &s.ws.regs
	}
	for i, p := range pkts {
		out[i] = s.packet(&r, p, i)
	}
	s.stats = s.stats.add(r.stats)
	s.mu.Unlock()
	if len(r.customs) == 0 {
		return
	}
	// Custom deliveries append onto a capacity-clamped slice, so they
	// copy out of the arena rather than overwrite a neighbour.
	var extra StatsSnapshot
	for _, ch := range r.customs {
		if fn, ok := s.customs[ch.act.Name]; ok {
			ds := fn(ch.act, ch.m, pkts[ch.pkt])
			out[ch.pkt] = append(out[ch.pkt], ds...)
			extra.Deliveries += int64(len(ds))
		}
	}
	s.count(extra)
}

// packet is the run-to-completion core every packet takes (§VI): the
// ingress pass walks each message to a leaf slot and ORs its port mask
// into the packet's union; the crossbar and egress emit the pruned
// replicas (§VI-A). Stateful predicates (§II), stream decisions (§VII-B)
// and recirculation (§VI-B) happen inside this one pass. i is the
// packet's index in the run, recorded with deferred custom hits.
func (s *Switch) packet(r *run, pkt *Packet, i int) []Delivery {
	eg, ws, st := s.prog.Egress(), &s.ws, &r.stats
	W := eg.W
	st.Packets++
	st.BytesIn += int64(pkt.Bytes)
	ws.union = words(ws.union, W)
	union := ws.union
	clear(union)

	if len(pkt.Msgs) == 0 && pkt.Flow != 0 {
		// Stream continuation: no application header, forward per the
		// union cached by the stream's first packet (§VII-B).
		cached, ok := s.flows.lookup(pkt.Flow, r.now, s.gen)
		copy(union, cached)
		if !ok {
			st.FlowMisses++
			return nil
		}
		st.FlowHits++
	}

	// Batches deeper than the parse budget recirculate (§VI-B).
	latency := baseLatency
	if extra := (len(pkt.Msgs) - 1) / compiler.MaxParsedMessages; extra > 0 {
		st.Recirculations += int64(extra)
		latency += time.Duration(extra) * recirculationLatency
	}

	ws.masks = words(ws.masks, len(pkt.Msgs)*W)
	masks := ws.masks
	walks := s.prog.Walks()
	for k, m := range pkt.Msgs {
		st.Messages++
		// One walk per part of the program; the message's port set is the
		// union of the leaves they reach. Every part walks before any
		// register update, so each reads the registers as they stood
		// before this message, as one diagram's single walk does.
		ws.slots = ws.slots[:0]
		var hit uint64
		for j := 0; j < walks; j++ {
			slot := s.prog.LeafSlot(j, m, r.regs)
			for w, x := range eg.Mask(slot) {
				if j == 0 {
					masks[k*W+w] = x
				} else {
					masks[k*W+w] |= x
				}
				union[w] |= x
				hit |= x
			}
			if slot != 0 && eg.Heavy(slot) {
				ws.slots = append(ws.slots, slot)
			}
		}
		// State updates fire for every message whose stateless context
		// matched, before forwarding semantics are applied: once per key
		// and custom action, whichever parts' leaves name it.
		for j, slot := range ws.slots {
			le := s.prog.LeafAt(slot)
			for _, key := range le.Updates {
				if j == 0 || !s.earlier(ws.slots[:j], func(e *compiler.LeafEntry) bool { return slices.Contains(e.Updates, key) }) {
					s.state.update(key, m, r.now)
					st.StateUpdates++
				}
			}
			for _, act := range le.Actions.Custom {
				if j == 0 || !s.earlier(ws.slots[:j], func(e *compiler.LeafEntry) bool {
					return e.Actions.Covers(act)
				}) {
					r.customs = append(r.customs, customHit{pkt: i, act: act, m: m})
				}
				hit = 1 // a custom action matches without a port
			}
		}
		if hit != 0 {
			st.Matched++
		}
	}

	// Stream subscriptions: the header-bearing packet installs the
	// stream's union for its continuations (§VII-B), tagged with the
	// generation whose dictionary its bits index. It keeps the full port set: ingress
	// suppression re-applies per continuation packet.
	if pkt.Flow != 0 && len(pkt.Msgs) > 0 {
		s.flows.install(pkt.Flow, union, r.now, s.gen)
	}
	if s.cfg.DropOnIngressPort {
		if w, bit, ok := eg.Bit(pkt.In); ok {
			union[w] &^= bit
		}
	}
	return s.emit(r, pkt, union, masks, latency)
}

// earlier reports whether the leaf of one of the heavy slots satisfies has.
func (s *Switch) earlier(slots []int, has func(*compiler.LeafEntry) bool) bool {
	for _, slot := range slots {
		if has(s.prog.LeafAt(slot)) {
			return true
		}
	}
	return false
}

// emit is the crossbar and egress: one replica per bit of union, in
// ascending bit order, which is port order, each holding the messages
// whose mask has that bit, in wire order.
func (s *Switch) emit(r *run, pkt *Packet, union, masks []uint64, latency time.Duration) []Delivery {
	n, total := 0, 0
	for w, u := range union {
		n += bits.OnesCount64(u)
		for k := w; k < len(masks); k += len(union) {
			total += bits.OnesCount64(masks[k] & u)
		}
	}
	if n == 0 {
		return nil
	}
	// Pruning stores every message and keeps those with the bit: the
	// last store needs a spare slot.
	var out []Delivery
	var flat []*spec.Message
	if em := r.emit; em == nil {
		out, flat = make([]Delivery, n), make([]*spec.Message, total+1)
	} else {
		out, flat = em.dels.alloc(n), em.msgs.alloc(total+1)
	}
	msgs, ports := pkt.Msgs, s.prog.Egress().Ports
	d, bytesOut := 0, 0
	for w, u := range union {
		for ; u != 0; u &= u - 1 {
			b := bits.TrailingZeros64(u)
			c := 0
			for k, m := range msgs {
				flat[c] = m
				c += int(masks[k*len(union)+w] >> b & 1)
			}
			// Field by field: a literal's stack copy stalls the store.
			dl := &out[d]
			dl.Port, dl.Msgs, dl.Latency = ports[w<<6|b], flat[:c:c], latency
			flat = flat[c:]
			d++
			// Pruned replica bytes scale with the surviving message share;
			// a full replica (a continuation too) carries the whole packet.
			if c < len(msgs) {
				bytesOut += pkt.Bytes * c / len(msgs)
			} else {
				bytesOut += pkt.Bytes
			}
		}
	}
	r.stats.BytesOut += int64(bytesOut)
	r.stats.Deliveries += int64(n)
	return out
}

// EvalMessage evaluates a single message (diagnostics / examples).
func (s *Switch) EvalMessage(m *spec.Message, now time.Duration) subscription.ActionSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prog.Eval(m, s.state.At(now))
}

func (s *Switch) String() string {
	prog := s.Program()
	return fmt.Sprintf("switch %s: %d stages, %d entries",
		s.ID, len(prog.Stages)+1, prog.TotalEntries())
}

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

// Config tunes the switch model. Construct it via DefaultConfig plus
// Options (see NewSwitch); direct literal construction is deprecated
// and kept only for internal migration.
type Config struct {
	// BaseLatency is the one-pass pipeline transit time. The paper
	// reports pipeline latency under 1µs (§VIII-F1).
	BaseLatency time.Duration
	// RecirculationLatency is the added cost of one recirculation pass.
	RecirculationLatency time.Duration
	// DropOnIngressPort suppresses forwarding a packet back out its
	// ingress port (standard switch behaviour; Algorithm 1's "other than
	// the ingress port").
	DropOnIngressPort bool
	// FlowCacheSize bounds the stream-subscription cache (§VII-B),
	// totalled across worker shards; 0 uses the default (65536 flows).
	FlowCacheSize int
	// FlowTTL expires idle streams; 0 uses the default (30s).
	FlowTTL time.Duration
	// Workers is the number of dataplane shards ProcessBatch fans out
	// across; 0 or 1 selects the sequential single-shard dataplane.
	Workers int
	// LeafCacheSize bounds the hot-rule leaf cache (DESIGN.md §16),
	// totalled across worker shards and rounded up to a power of two
	// per shard; 0 uses the default (65536 entries), negative disables
	// the cache.
	LeafCacheSize int
}

// DefaultConfig returns the Tofino-like defaults.
func DefaultConfig() Config {
	return Config{
		BaseLatency:          600 * time.Nanosecond,
		RecirculationLatency: 400 * time.Nanosecond,
		DropOnIngressPort:    true,
	}
}

// epoch is one immutable (Program, StateTable) generation. Install
// publishes a new epoch with a single atomic pointer swap, so packet
// workers always observe a consistent program/state pair and never a
// half-updated switch.
type epoch struct {
	gen   uint64
	prog  *compiler.Program
	state *StateTable
	// leaf is the precomputed leaf-cache key layout and admissibility
	// summary for prog, or nil when the cache cannot serve it. It is
	// derived once per Install so the packet path never inspects the
	// program structure (let alone the BDD).
	leaf *leafMeta
}

// leafMeta is the per-epoch leaf-cache admissibility set: which stages
// participate in the cache key, which subscribable indices feed the
// key slots, and how many leaf rows are cacheable. Recomputed on every
// Install (the epoch swap is what invalidates the cache, via the
// generation tag).
type leafMeta struct {
	// keyStage marks, per pipeline stage, whether a taken transition
	// keeps a walk pure: stages matching a key packet field or a header
	// validity bit (both captured by the cache key). See
	// Program.LookupKeyed.
	keyStage []bool
	// keyIdx are the subscribable field indices backing the key slots.
	keyIdx [LeafKeySlots]int32
	nslots int
	// admissible counts leaf rows whose outcomes are cacheable.
	admissible int
	// fastOK reports that the program has no aggregate stages, so the
	// zero-alloc batch path may run messages without a state reader.
	fastOK bool
}

// newEpoch assembles an epoch, precomputing the leaf-cache metadata.
func newEpoch(gen uint64, prog *compiler.Program, state *StateTable) *epoch {
	return &epoch{gen: gen, prog: prog, state: state, leaf: buildLeafMeta(prog)}
}

// buildLeafMeta derives the leaf-cache key layout for a program, or
// nil when the spec cannot be keyed (no packable fields, or more
// headers than the validity mask holds).
func buildLeafMeta(prog *compiler.Program) *leafMeta {
	sp := prog.Spec
	if len(sp.Headers) > 64 {
		return nil
	}
	keyFields := LeafKeyFields(sp)
	if len(keyFields) == 0 {
		return nil
	}
	lm := &leafMeta{nslots: len(keyFields)}
	isKey := make(map[*spec.Field]bool, len(keyFields))
	for s, f := range keyFields {
		idx, ok := sp.SubscribableIndex(f)
		if !ok {
			return nil
		}
		lm.keyIdx[s] = int32(idx)
		isKey[f] = true
	}
	lm.keyStage = make([]bool, len(prog.Stages))
	hasAgg := false
	for i, t := range prog.Stages {
		switch t.Field.Ref.Kind {
		case subscription.PacketRef:
			lm.keyStage[i] = isKey[t.Field.Ref.Field]
		case subscription.ValidityRef:
			lm.keyStage[i] = true
		default: // AggregateRef
			hasAgg = true
		}
	}
	lm.fastOK = !hasAgg
	for _, le := range prog.Leaf {
		if leafAdmissible(le) {
			lm.admissible++
		}
	}
	return lm
}

// leafAdmissible reports whether a leaf row's outcome may be cached:
// stateless (no register updates), no custom actions, and a port set
// that fits the inline entry.
func leafAdmissible(le *compiler.LeafEntry) bool {
	return len(le.Updates) == 0 && len(le.Actions.Custom) == 0 &&
		len(le.Actions.Ports) <= LeafMaxPorts
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
	cfg     Config
	epoch   atomic.Pointer[epoch]
	shards  []*shard
	customs map[string]CustomActionFunc
	parser  Parser

	// installMu serializes control-plane updates (Install) so epoch
	// generations advance monotonically.
	installMu sync.Mutex

	// batch is the reusable ProcessBatch workspace (result and
	// partition buffers); see the ProcessBatch reuse contract.
	batch batchScratch
}

// New builds a switch from a static pipeline and a compiled program.
// Deprecated-style entry point retained for internal callers still
// holding a Config; new code should use NewSwitch with Options.
func New(id string, static *compiler.StaticPipeline, prog *compiler.Program, cfg Config) (*Switch, error) {
	if prog == nil {
		return nil, fmt.Errorf("pipeline: New: nil program")
	}
	if static != nil {
		if err := static.Validate(prog); err != nil {
			return nil, err
		}
	}
	cfg = cfg.normalize()
	s := &Switch{
		ID:      id,
		static:  static,
		cfg:     cfg,
		customs: make(map[string]CustomActionFunc),
	}
	perShard := (cfg.FlowCacheSize + cfg.Workers - 1) / cfg.Workers
	perLeaf := 0
	if cfg.LeafCacheSize > 0 {
		perLeaf = (cfg.LeafCacheSize + cfg.Workers - 1) / cfg.Workers
	}
	s.shards = make([]*shard, cfg.Workers)
	for i := range s.shards {
		sh := &shard{flows: newFlowCache(perShard, cfg.FlowTTL)}
		if perLeaf > 0 {
			sh.leaf = newLeafCache(perLeaf)
		}
		s.shards[i] = sh
	}
	s.epoch.Store(newEpoch(0, prog, NewStateTable(prog)))
	return s, nil
}

// NewSwitch builds a switch from DefaultConfig plus functional options
// — the one supported way to configure a dataplane.
func NewSwitch(id string, static *compiler.StaticPipeline, prog *compiler.Program, opts ...Option) (*Switch, error) {
	cfg := DefaultConfig()
	for _, fn := range opts {
		fn(&cfg)
	}
	return New(id, static, prog, cfg)
}

// Config returns a copy of the switch's frozen configuration.
func (s *Switch) Config() Config { return s.cfg }

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
// Registers are re-linked; windows restart. Cached stream decisions
// were compiled from the outgoing program, so every flow-cache shard is
// invalidated — continuation packets re-miss until their stream's next
// header packet installs a fresh decision (fixes the stale §VII-B
// forwarding bug).
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
	old := s.epoch.Load()
	s.epoch.Store(newEpoch(old.gen+1, prog, NewStateTable(prog)))
	s.installMu.Unlock()
	// Purge after the swap: any straggler still installing decisions
	// under the old epoch is defeated by the generation tag on cache
	// entries, so post-purge lookups can never observe a stale decision.
	// The leaf cache needs no purge at all for the same reason — every
	// entry carries the generation it was filled under and dies on
	// mismatch; the swap above is the invalidation.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.flows.purge()
		sh.mu.Unlock()
	}
	return nil
}

// LeafCacheStats reports the leaf cache's cumulative counters and the
// current epoch's admissibility gauges. Separate from Stats because
// Admissible/Capacity are configuration-derived gauges, not resettable
// traffic counters.
func (s *Switch) LeafCacheStats() LeafCacheStats {
	var out LeafCacheStats
	ep := s.epoch.Load()
	for _, sh := range s.shards {
		if sh.leaf != nil {
			out.Capacity += len(sh.leaf.entries)
		}
		out.Hits += sh.stats.leafHits.Load()
		out.Misses += sh.stats.leafMisses.Load()
		out.Fills += sh.stats.leafFills.Load()
	}
	out.Enabled = out.Capacity > 0 && ep.leaf != nil
	if ep.leaf != nil {
		out.Admissible = ep.leaf.admissible
	}
	return out
}

// HandleCustom registers a handler for a custom action name. Call
// before traffic starts.
func (s *Switch) HandleCustom(name string, fn CustomActionFunc) {
	s.customs[name] = fn
}

// Process runs a packet through the pipeline at virtual time now and
// returns the egress deliveries. Safe for concurrent use; the packet is
// executed on the shard its flow hashes to (flow-less packets use
// shard 0 — use ProcessBatch to spread those across workers).
//
// Per §VI: the ingress pass evaluates each message and builds a port
// mask; the crossbar replicates the packet once per egress port; egress
// prunes each replica to the messages whose mask includes the port.
// Batches deeper than the static pipeline's parse budget recirculate,
// adding latency.
func (s *Switch) Process(pkt *Packet, now time.Duration) []Delivery {
	return s.processOn(s.shards[s.shardIndex(pkt.Flow)], pkt, now)
}

// processOn executes one packet on one shard against the current epoch.
func (s *Switch) processOn(sh *shard, pkt *Packet, now time.Duration) []Delivery {
	ep := s.epoch.Load()
	st := &sh.stats
	st.packets.Add(1)
	st.bytesIn.Add(int64(pkt.Bytes))

	// Stream continuation: no application header, forward per the
	// decision cached by the stream's first packet (§VII-B).
	if len(pkt.Msgs) == 0 && pkt.Flow != 0 {
		sh.mu.Lock()
		acts, ok := sh.flows.lookup(pkt.Flow, now, ep.gen)
		sh.mu.Unlock()
		if !ok {
			st.flowMisses.Add(1)
			return nil
		}
		st.flowHits.Add(1)
		out := make([]Delivery, 0, len(acts.Ports))
		for _, port := range acts.Ports {
			if s.cfg.DropOnIngressPort && port == pkt.In {
				continue
			}
			out = append(out, Delivery{Port: port, Latency: s.cfg.BaseLatency})
			st.bytesOut.Add(int64(pkt.Bytes))
		}
		st.deliveries.Add(int64(len(out)))
		return out
	}

	passBudget := len(pkt.Msgs)
	if s.static != nil && s.static.MaxParsedMessages > 0 {
		passBudget = s.static.MaxParsedMessages
	}
	passes := 1
	if len(pkt.Msgs) > passBudget {
		passes += (len(pkt.Msgs) - 1) / passBudget
		st.recirculations.Add(int64(passes - 1))
	}
	latency := s.cfg.BaseLatency + time.Duration(passes-1)*s.cfg.RecirculationLatency

	// Ingress workspace: the shard's reusable scratch replaces the
	// historical per-packet map allocation. TryLock keeps arbitrary
	// goroutines that collapse onto one shard from serializing — a
	// contended call falls back to a fresh private scratch (and skips
	// the leaf cache, which only the lock holder may touch).
	locked := sh.mu.TryLock()
	scr := &sh.scr
	if !locked {
		scr = &procScratch{}
	}
	scr.reset()
	useLeaf := locked && sh.leaf != nil && ep.leaf != nil

	var flowPorts subscription.ActionSet
	var customs []customHit
	regs := ep.state.At(now) // boxed once per packet, not per message
	for _, m := range pkt.Msgs {
		st.messages.Add(1)
		var le *compiler.LeafEntry
		pure := false
		if useLeaf {
			buildLeafKey(ep.leaf, m, &scr.key)
			if e := sh.leaf.probe(&scr.key, ep.gen); e != nil {
				// Cache hit: admissible entries are stateless by
				// construction, so forwarding is the whole effect.
				st.leafHits.Add(1)
				if e.nports > 0 {
					st.matched.Add(1)
					for _, port := range e.ports[:e.nports] {
						p := int(port)
						if pkt.Flow != 0 {
							flowPorts.Add(subscription.FwdAction(p))
						}
						if s.cfg.DropOnIngressPort && p == pkt.In {
							continue
						}
						scr.add(p, m)
					}
				}
				continue
			}
			st.leafMisses.Add(1)
			le, pure = ep.prog.LookupKeyed(m, regs, ep.leaf.keyStage)
			// The FIB cache-fill rule: memoize only outcomes that are a
			// pure function of the cache key (walk purity) and whose
			// action sets are stateless — a cached leaf then subsumes
			// every decision reachable from its key, so no overlapping
			// higher-priority outcome can be hidden (DESIGN.md §16).
			if pure && (le == nil || leafAdmissible(le)) {
				if le == nil {
					sh.leaf.fill(&scr.key, ep.gen, nil)
				} else {
					sh.leaf.fill(&scr.key, ep.gen, le.Actions.Ports)
				}
				st.leafFills.Add(1)
			}
		} else {
			le = ep.prog.Lookup(m, regs)
		}
		if le == nil {
			continue
		}
		// State updates fire for every message whose stateless context
		// matched, before forwarding semantics are applied.
		for _, key := range le.Updates {
			ep.state.Update(key, m, now)
			st.stateUpdates.Add(1)
		}
		if le.Actions.IsEmpty() {
			continue
		}
		st.matched.Add(1)
		for _, port := range le.Actions.Ports {
			// The cached stream decision keeps the full port set;
			// ingress suppression re-applies per continuation packet.
			if pkt.Flow != 0 {
				flowPorts.Add(subscription.FwdAction(port))
			}
			if s.cfg.DropOnIngressPort && port == pkt.In {
				continue
			}
			scr.add(port, m)
		}
		for _, act := range le.Actions.Custom {
			customs = append(customs, customHit{act: act, m: m})
		}
	}

	// Stream subscriptions: the header-bearing packet installs the
	// stream's merged port decision for its continuations (§VII-B),
	// tagged with the epoch it was compiled under.
	if pkt.Flow != 0 {
		if !locked {
			sh.mu.Lock()
		}
		sh.flows.install(pkt.Flow, flowPorts, now, ep.gen)
		if !locked {
			sh.mu.Unlock()
		}
	}

	// Crossbar + egress: one pruned replica per port, deterministic
	// port order. The returned deliveries are heap-fresh (callers —
	// netsim in particular — retain them past this call); only the
	// bucket scratch is reused.
	scr.sort()
	total := 0
	for i := 0; i < scr.n; i++ {
		total += len(scr.buckets[i].msgs)
	}
	out := make([]Delivery, 0, scr.n)
	if scr.n > 0 {
		flat := make([]*spec.Message, 0, total)
		for i := 0; i < scr.n; i++ {
			b := &scr.buckets[i]
			start := len(flat)
			flat = append(flat, b.msgs...)
			out = append(out, Delivery{Port: b.port, Msgs: flat[start:len(flat):len(flat)], Latency: latency})
			// Pruned replica bytes scale with the surviving message share.
			if len(pkt.Msgs) > 0 {
				st.bytesOut.Add(int64(pkt.Bytes * len(b.msgs) / len(pkt.Msgs)))
			}
		}
	}
	if locked {
		sh.mu.Unlock()
	}
	// Custom actions run outside the shard lock: handlers are user code
	// and may re-enter the switch.
	for _, ch := range customs {
		if fn, ok := s.customs[ch.act.Name]; ok {
			out = append(out, fn(ch.act, ch.m, pkt)...)
		}
	}
	st.deliveries.Add(int64(len(out)))
	return out
}

// customHit defers a matched custom action until the shard lock is
// released.
type customHit struct {
	act subscription.Action
	m   *spec.Message
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

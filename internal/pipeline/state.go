// Package pipeline is the software switch dataplane: it executes the
// static pipeline + compiled program that the Camus compiler emits,
// standing in for the Tofino ASIC of the paper's testbed. It implements
// batched-message parsing with recirculation (§VI), per-port message
// pruning via port masks (§VI-A), multicast replication, stateful
// aggregates over tumbling windows (§II), and custom actions (§VIII-C5).
package pipeline

import (
	"sync"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// register is one stateful aggregate over a tumbling window: the window
// [start, start+window) accumulates count and sum; when the window rolls,
// the aggregate restarts from zero (paper §II: count, sum, average over
// tumbling windows).
type register struct {
	agg    spec.AggFunc
	window time.Duration
	start  time.Duration // virtual time of window start
	count  int64
	sum    int64
}

func (r *register) roll(now time.Duration) {
	if r.window <= 0 {
		return
	}
	if now-r.start >= r.window {
		// Tumble to the window containing now.
		elapsed := (now - r.start) / r.window
		r.start += elapsed * r.window
		r.count, r.sum = 0, 0
	}
}

func (r *register) update(now time.Duration, v int64) {
	r.roll(now)
	r.count++
	r.sum += v
}

func (r *register) value(now time.Duration) int64 {
	r.roll(now)
	switch r.agg {
	case spec.AggCount:
		return r.count
	case spec.AggSum:
		return r.sum
	case spec.AggAvg:
		if r.count == 0 {
			return 0
		}
		return r.sum / r.count
	default:
		return 0
	}
}

// StateTable holds a switch's stateful registers, keyed by aggregate key
// (subscription.FieldRef.Key). It implements subscription.StateReader
// when bound to a read time via At. The
// registers are also read outside the switch lock (EvalMessage,
// Snapshot) and shared with the tables an Install carries them into, so
// all access — including reads, which roll tumbling windows — goes
// through one lock of their own.
type StateTable struct {
	// mu guards the registers. The key set is fixed at construction;
	// the lock protects the per-register window state (count/sum/start),
	// which mutates on reads as well as updates. Tables that carry one
	// another's registers share it.
	mu   *sync.Mutex
	regs map[string]*register
	// fieldOf maps aggregate key → the packet field fed into the
	// register on update (nil for count()).
	fieldOf map[string]*spec.Field
}

// NewStateTable allocates one register per aggregate the program uses
// (compiler.Aggregates) — the dynamic linking of state variables to the
// pre-allocated register block (§V-A).
func NewStateTable(p *compiler.Program) *StateTable {
	st := &StateTable{
		mu:      new(sync.Mutex),
		regs:    make(map[string]*register),
		fieldOf: make(map[string]*spec.Field),
	}
	for _, fv := range compiler.Aggregates(p) {
		st.regs[fv.Key()] = &register{agg: fv.Ref.Agg, window: fv.Ref.Window}
		st.fieldOf[fv.Key()] = fv.Ref.Field
	}
	return st
}

// carry returns p's state table with this one's registers carried over:
// a key both programs hold keeps its register and window, a new key
// starts fresh, a key p dropped goes. The two tables share one lock, so
// packets still running the outgoing program and packets on the incoming
// one update a carried register under it.
func (st *StateTable) carry(p *compiler.Program) *StateTable {
	next := NewStateTable(p)
	next.mu = st.mu
	for k := range next.regs {
		if r, ok := st.regs[k]; ok {
			next.regs[k] = r
		}
	}
	return next
}

// Update feeds a packet into the named register (an __update directive
// from a leaf entry). Safe for concurrent use.
func (st *StateTable) Update(key string, m *spec.Message, now time.Duration) {
	r, ok := st.regs[key]
	if !ok {
		return
	}
	var v int64
	if f := st.fieldOf[key]; f != nil {
		idx, ok := m.Spec().SubscribableIndex(f)
		if !ok {
			return
		}
		val, present := m.Get(idx)
		if !present {
			return
		}
		v = val.Int
	}
	st.mu.Lock()
	r.update(now, v)
	st.mu.Unlock()
}

// At returns a StateReader view of the registers at a virtual time.
func (st *StateTable) At(now time.Duration) subscription.StateReader {
	return stateAt{t: st, now: now}
}

type stateAt struct {
	t   *StateTable
	now time.Duration
}

// AggValue implements subscription.StateReader.
func (s stateAt) AggValue(key string) int64 {
	r, ok := s.t.regs[key]
	if !ok {
		return 0
	}
	s.t.mu.Lock()
	v := r.value(s.now)
	s.t.mu.Unlock()
	return v
}

// Snapshot returns the current value of every register (diagnostics).
func (st *StateTable) Snapshot(now time.Duration) map[string]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]int64, len(st.regs))
	for k, r := range st.regs {
		out[k] = r.value(now)
	}
	return out
}

package pipeline

import (
	"sync"
	"time"

	"camus/internal/spec"
)

// workspace is the reusable mutable state of the packet core: the port
// mask words of the packet in flight and the register reader. A port set
// is W words under the installed program's port dictionary
// (compiler.Egress): union is the packet's, masks holds each message's
// in wire order, so egress prunes a replica with one bit test per
// message. Where a run emits is not the workspace's business: the
// deliveries go into the emit arena of the Results the caller passed.
// slots holds the heavy leaf slots the parts reached for the message in
// hand, in part order.
type workspace struct {
	union, masks []uint64
	slots        []int
	regs         stateAt
}

// words returns buf resliced to n words, reallocated when it is too
// short.
func words(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// arena hands out capacity-clamped subslices of a chunked backing
// buffer. When a chunk fills, a fresh one is allocated and the old one
// is abandoned to the slices already handed out — growth never moves
// published results, and once the chunk matches the working set the
// steady state allocates nothing.
type arena[T any] struct {
	buf  []T
	used int
}

func (a *arena[T]) reset() { a.used = 0 }

func (a *arena[T]) alloc(n int) []T {
	if a.buf == nil || a.used+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < 1024 {
			size = 1024
		}
		for size < n {
			size *= 2
		}
		a.buf = make([]T, size)
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// cachedFlows reports the number of flow-cache entries installed under
// the current program (diagnostics, tests).
func (s *Switch) cachedFlows() int {
	s.mu.Lock()
	n := 0
	for _, e := range s.flows.entries {
		if e.gen == s.gen {
			n++
		}
	}
	s.mu.Unlock()
	return n
}

// emitArena is where a batch emits its deliveries and their pruned
// message lists. Handed-out slices stay valid until the arena is reset
// (growth abandons the old chunk to the slices already pointing into it,
// so it never invalidates results mid-batch).
type emitArena struct {
	dels arena[Delivery]
	msgs arena[*spec.Message]
}

// Results is the caller-owned output of ProcessBatchInto: the result
// index and the emit arena. Everything a call returns lives in the
// Results it was given and is valid until that Results is passed to
// ProcessBatchInto again — whoever else batches on the switch meanwhile.
// The zero value is ready to use; a Results must not be shared by
// concurrent calls.
type Results struct {
	out  [][]Delivery
	emit emitArena
}

// begin sizes res for a batch of n packets and returns the cleared
// result index.
func (res *Results) begin(n int) [][]Delivery {
	if cap(res.out) < n {
		res.out = make([][]Delivery, n)
	}
	out := res.out[:n]
	for i := range out {
		out[i] = nil
	}
	return out
}

// batchScratch is the switch-owned Results ProcessBatch emits into. A
// call that finds it busy falls back to a throwaway Results: blocking
// would recycle a concurrent caller's unread results, deadlock a custom
// handler batching on its own switch, and queue callers on a mutex
// held across ProcessBatchInto, the convoy camus-locksend flags.
type batchScratch struct {
	mu  sync.Mutex
	res Results
}

// ProcessBatch is ProcessBatchInto on the switch's own Results.
//
// Reuse contract: the returned slice and every delivery in it are
// recycled by the *next* ProcessBatch call from any goroutine — results
// are valid until then. Concurrent ProcessBatch calls are safe: a call
// that finds the switch's Results in use emits into a throwaway one
// (counted in StatsSnapshot.BatchFallbacks), whose results are the
// caller's alone. Goroutines that batch on one switch side by side
// should each bring their own Results to ProcessBatchInto.
func (s *Switch) ProcessBatch(pkts []*Packet, now time.Duration) [][]Delivery {
	bs := &s.batch
	if !bs.mu.TryLock() {
		s.count(StatsSnapshot{BatchFallbacks: 1})
		return s.ProcessBatchInto(new(Results), pkts, now)
	}
	defer bs.mu.Unlock()
	return s.ProcessBatchInto(&bs.res, pkts, now)
}

// ProcessBatchInto runs a batch of packets through the dataplane at
// virtual time now and returns each packet's deliveries, indexed like
// pkts, emitted into res (see Results for their lifetime).
//
// The batch runs in input order through the same per-packet core as
// Process, so per-packet results are identical to calling Process;
// custom-action handlers run once the batch has been matched. Safe for
// concurrent use with distinct Results; a steady-state call allocates
// nothing.
func (s *Switch) ProcessBatchInto(res *Results, pkts []*Packet, now time.Duration) [][]Delivery {
	out := res.begin(len(pkts))
	s.execute(pkts, out, now, &res.emit)
	return out
}

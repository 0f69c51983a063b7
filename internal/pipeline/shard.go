package pipeline

import (
	"sync"
	"time"

	"camus/internal/spec"
)

// shard is one worker's private slice of the dataplane: a flow-cache
// partition, a stats block, and the workspace the packet core runs in.
// Sharding follows the cache-aware per-core partitioning pattern from
// software packet-forwarding literature: each worker touches only its
// own mutable state, so workers never contend on the caches.
//
// Shards are individually heap-allocated (the Switch holds pointers),
// so two shards' counters never share a cache line.
type shard struct {
	stats switchStats

	// mu guards flows and ws; a run holds it from start to end.
	// Per-shard rather than per-switch: in a batch exactly one worker
	// owns the shard and the lock is uncontended; it exists so that calls
	// from arbitrary goroutines that hash onto the same shard stay
	// correct, the later one waiting for the earlier.
	mu    sync.Mutex
	flows *flowCache
	ws    workspace
}

// workspace is the reusable mutable state of the packet core: the port
// mask words of the packet in flight and the register reader. A port set
// is W words under the epoch program's port dictionary (compiler.Egress):
// union is the packet's, masks holds each message's in wire order, so
// egress prunes a replica with one bit test per message. Where a run
// emits is not the workspace's business: the deliveries go into the emit
// arena of the Results the caller passed.
type workspace struct {
	union, masks []uint64
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

// shardIndex maps a flow to its home shard. The mapping is pure, so a
// stream's continuation packets always land on the shard holding its
// cached decision, no matter which goroutine or batch carries them.
// Flow-less packets (Flow == 0) have no cached state and default to
// shard 0; ProcessBatch spreads them round-robin instead.
func (s *Switch) shardIndex(flow FlowKey) int {
	if len(s.shards) == 1 || flow == 0 {
		return 0
	}
	// Fibonacci hashing spreads adjacent flow keys across shards.
	h := uint64(flow) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(s.shards)))
}

// cachedFlows reports the number of flow-cache entries installed under
// the current epoch, across shards (diagnostics, tests).
func (s *Switch) cachedFlows() int {
	gen, n := s.epoch.Load().gen, 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.flows.entries {
			if e.gen == gen {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// emitArena is where one shard's share of a batch emits its deliveries
// and their pruned message lists. Handed-out slices stay valid until the
// arena is reset (growth abandons the old chunk to the slices already
// pointing into it, so it never invalidates results mid-batch).
type emitArena struct {
	dels arena[Delivery]
	msgs arena[*spec.Message]
}

// Results is the caller-owned output of ProcessBatchInto: the result
// index, the per-shard partition lists and one emit arena per shard.
// Everything a call returns lives in the Results it was given and is
// valid until that Results is passed to ProcessBatchInto again — whoever
// else batches on the switch meanwhile. The zero value is ready to use;
// a Results must not be shared by concurrent calls.
type Results struct {
	out    [][]Delivery
	assign [][]int32
	emit   []emitArena
}

// begin sizes res for a batch of n packets over w shards and returns the
// cleared result index.
func (res *Results) begin(n, w int) [][]Delivery {
	if cap(res.out) < n {
		res.out = make([][]Delivery, n)
	}
	out := res.out[:n]
	for i := range out {
		out[i] = nil
	}
	if len(res.emit) < w {
		res.emit = append(res.emit, make([]emitArena, w-len(res.emit))...)
		res.assign = append(res.assign, make([][]int32, w-len(res.assign))...)
	}
	return out
}

// batchScratch is the switch-owned Results ProcessBatch emits into,
// guarded by its own mutex so concurrent ProcessBatch callers fall back
// to a throwaway Results instead of serializing.
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
		s.shards[0].stats.commit(StatsSnapshot{BatchFallbacks: 1})
		return s.ProcessBatchInto(new(Results), pkts, now)
	}
	defer bs.mu.Unlock()
	return s.ProcessBatchInto(&bs.res, pkts, now)
}

// ProcessBatchInto runs a batch of packets through the dataplane at
// virtual time now and returns each packet's deliveries, indexed like
// pkts, emitted into res (see Results for their lifetime).
//
// Packets are partitioned across the switch's worker shards: packets
// with a flow identity go to the flow's home shard (preserving
// per-stream ordering and cache locality), flow-less packets are spread
// round-robin. Each worker runs its share in input order through the
// same per-packet core as Process, so per-packet results are identical
// to calling Process; custom-action handlers run once the worker's share
// has been matched. Safe for concurrent use with distinct Results; a
// steady-state call allocates nothing.
func (s *Switch) ProcessBatchInto(res *Results, pkts []*Packet, now time.Duration) [][]Delivery {
	w := len(s.shards)
	out := res.begin(len(pkts), w)
	if w == 1 {
		s.runOn(s.shards[0], pkts, nil, out, now, &res.emit[0])
		return out
	}
	if len(pkts) < 2 { // nothing to fan out
		if len(pkts) == 1 {
			sh := s.shardIndex(pkts[0].Flow)
			s.runOn(s.shards[sh], pkts, nil, out, now, &res.emit[sh])
		}
		return out
	}
	assign := res.assign[:w]
	for i := range assign {
		assign[i] = assign[i][:0]
	}
	rr := 0
	for i, p := range pkts {
		var sh int
		if p.Flow != 0 {
			sh = s.shardIndex(p.Flow)
		} else {
			sh = rr
			rr++
			if rr == w {
				rr = 0
			}
		}
		assign[sh] = append(assign[sh], int32(i))
	}
	var wg sync.WaitGroup
	for sh := 0; sh < w; sh++ {
		if len(assign[sh]) == 0 {
			continue
		}
		wg.Add(1)
		// Captures passed as arguments: a closure capturing out/pkts by
		// reference would heap-allocate their headers on every call,
		// including the single-shard path that never reaches this loop.
		go func(sh *shard, idxs []int32, pkts []*Packet, out [][]Delivery, em *emitArena) {
			defer wg.Done()
			s.runOn(sh, pkts, idxs, out, now, em)
		}(s.shards[sh], assign[sh], pkts, out, &res.emit[sh])
	}
	wg.Wait()
	return out
}

package bdd

import (
	"math/bits"
	"unsafe"
)

// table is the one hash table of the BDD kernel: an exact map from three
// int32s to a non-negative int32, open-addressed with linear probing over
// one flat slice of 16-byte slots. The unique table, the merge tree's memo,
// the terminal-pair memo, the terminal intern index and the universe's
// context memos are all instances of it. It holds no pointers, so the
// garbage collector never scans it; a probe hashes three words with two
// multiplies and usually touches one cache line. It grows by doubling at
// three-quarters load. A miss under linear probing walks
// (1 + 1/(1−α)²)/2 slots, 8.5 at α = ¾ against 2.5 at ½; but the slots of
// a run are adjacent and the cost of a probe is its first cache miss, so
// the two loads compile in the same time (DESIGN §11) and ¾ holds a quarter
// fewer bytes. The merge's recursive subproblems, which mostly miss, go to
// the lossy cache below instead.
// The zero value is an empty table.
type table struct {
	slots []slot // length 0 or a power of two
	n     int
	shift uint // 64 − log2(len(slots)): the hash's top bits index slots
}

// slot is one entry; v is the value plus one, so that zeroed memory is
// empty slots.
type slot struct {
	a, b, c int32
	v       int32
}

const minTableSlots = 64

func hash3(a, b, c int32) uint64 {
	h := (uint64(uint32(a)) | uint64(uint32(b))<<32) * 0x9E3779B97F4A7C15
	return (h ^ h>>32 ^ uint64(uint32(c))) * 0xD6E8FEB86659FD93
}

// get returns the value stored under (a, b, c).
func (t *table) get(a, b, c int32) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := int(hash3(a, b, c) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.v == 0 {
			return 0, false
		}
		if s.a == a && s.b == b && s.c == c {
			return s.v - 1, true
		}
	}
}

// put stores v (≥ 0) under (a, b, c), replacing any previous value.
func (t *table) put(a, b, c, v int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(hash3(a, b, c) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.v == 0 {
			*s = slot{a, b, c, v + 1}
			t.n++
			return
		}
		if s.a == a && s.b == b && s.c == c {
			s.v = v + 1
			return
		}
	}
}

// grow doubles the slot array and reinserts every entry.
func (t *table) grow() {
	old := t.slots
	size := max(minTableSlots, 2*len(old))
	t.slots = make([]slot, size)
	// The runtime does not zero memory fresh from the OS, so without this
	// write the first touch of most slots is the probe's read: the kernel
	// maps its shared zero page, and the store that follows faults again
	// to replace it. Two faults a page tripled the system time of a
	// control-plane set-up (DESIGN §11); one sequential write here takes
	// the single fault per page up front.
	clear(t.slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.v == 0 {
			continue
		}
		i := int(hash3(s.a, s.b, s.c) >> t.shift)
		for t.slots[i].v != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// len returns the number of entries.
func (t *table) len() int { return t.n }

// bytes returns the memory the table holds.
func (t *table) bytes() int { return cap(t.slots) * int(unsafe.Sizeof(slot{})) }

// cache is the kernel's computed table, as in CUDD and BuDDy: a lossy map
// from three int32s to a non-negative int32 over direct-mapped 16-byte
// slots. A lookup probes one slot, and a store overwrites whatever the slot
// held. The or-merge's recursive subproblems go here: losing one costs a
// recomputation, which finds every node it builds already in the unique
// table, so what is lost never changes a result or a node ID. Few
// subproblems recur (DESIGN §11), so a cache that fits in L2 finds nearly
// as many as a table that keeps them all, at a fraction of the memory
// latency. The zero value holds nothing until fit.
type cache struct {
	slots []slot // length 0 or a power of two
	shift uint
	limit int // a lower slot cap, a power of two; 0 for none (tests only)
}

// The cache's size bounds: 64 slots, so that the one-shot engines of
// covering queries stay small, up to 64 Ki slots (1 MiB, half a 2 MiB L2).
// Larger caches compiled slower (DESIGN §11).
const (
	minCacheSlots = 64
	maxCacheSlots = 1 << 16
)

// fit sizes the cache to the next power of two at or above n slots, within
// its bounds. A resize drops every entry.
func (c *cache) fit(n int) {
	size := min(max(minCacheSlots, 1<<bits.Len(uint(n-1))), maxCacheSlots)
	if c.limit > 0 {
		size = min(size, c.limit)
	}
	if size == len(c.slots) {
		return
	}
	c.slots = make([]slot, size)
	clear(c.slots) // one fault a page up front; see table.grow
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// get returns the value stored under (a, b, k), if its slot still holds it.
func (c *cache) get(a, b, k int32) (int32, bool) {
	if len(c.slots) == 0 {
		return 0, false
	}
	s := &c.slots[hash3(a, b, k)>>c.shift]
	if s.v != 0 && s.a == a && s.b == b && s.c == k {
		return s.v - 1, true
	}
	return 0, false
}

// put stores v (≥ 0) under (a, b, k), evicting what its slot held.
func (c *cache) put(a, b, k, v int32) {
	c.slots[hash3(a, b, k)>>c.shift] = slot{a, b, k, v + 1}
}

// bytes returns the memory the cache holds.
func (c *cache) bytes() int { return cap(c.slots) * int(unsafe.Sizeof(slot{})) }

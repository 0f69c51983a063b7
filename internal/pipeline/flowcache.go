package pipeline

import (
	"time"

	"camus/internal/subscription"
)

// FlowKey identifies a stream (e.g. a 5-tuple hash computed by the
// parser).
type FlowKey uint64

// flowEntry is one cached stream decision, tagged with the program
// epoch it was compiled under.
type flowEntry struct {
	actions subscription.ActionSet
	expires time.Duration
	gen     uint64
}

// flowCache implements stream subscriptions (paper §VII-B): "Subscribing
// to streams where the header is only present in the first packet would
// require the switch to store the matching rule of the first packet, and
// apply it to subsequent packets in the stream." The first packet of a
// flow carries the application header; its forwarding decision is cached
// under the flow key and applied to header-less continuation packets.
//
// Decisions are epoch-tagged: a lookup only returns entries installed
// under the currently-running program generation, so a decision compiled
// from a program that has since been replaced by Install can never
// forward a packet (the stale §VII-B stream-state bug) and Install need
// not visit the cache. The cache is not internally synchronized — each
// worker shard owns one instance and guards it with the shard lock.
type flowCache struct {
	entries map[FlowKey]flowEntry
	// order is a FIFO ring of keys for capacity eviction, in bijection
	// with entries: a key leaves both only by eviction.
	order []FlowKey
	head  int
	cap   int
	ttl   time.Duration
}

func newFlowCache(capacity int, ttl time.Duration) *flowCache {
	if capacity <= 0 {
		capacity = 65536
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	// Map and ring grow with use: most switches never see a stream, and
	// a map pre-sized to capacity is megabytes of pointers for the
	// collector to scan on every switch of a fabric.
	return &flowCache{entries: make(map[FlowKey]flowEntry), cap: capacity, ttl: ttl}
}

// install caches a flow's decision under program generation gen,
// evicting the oldest entry at capacity.
func (c *flowCache) install(key FlowKey, acts subscription.ActionSet, now time.Duration, gen uint64) {
	if _, exists := c.entries[key]; !exists {
		if len(c.order)-c.head >= c.cap {
			victim := c.order[c.head]
			c.head++
			delete(c.entries, victim)
			if c.head > c.cap {
				// Compact the ring backing array.
				c.order = append([]FlowKey(nil), c.order[c.head:]...)
				c.head = 0
			}
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = flowEntry{actions: acts.Clone(), expires: now + c.ttl, gen: gen}
}

// lookup returns the cached decision for a flow, refreshing its TTL.
// Expired entries and entries from a different program generation are
// dead: they miss but keep their slot, which the flow's next install
// overwrites in place.
func (c *flowCache) lookup(key FlowKey, now time.Duration, gen uint64) (subscription.ActionSet, bool) {
	e, ok := c.entries[key]
	if !ok || now > e.expires || e.gen != gen {
		return subscription.ActionSet{}, false
	}
	e.expires = now + c.ttl
	c.entries[key] = e
	return e.actions, true
}

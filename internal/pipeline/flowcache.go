package pipeline

import "time"

// FlowKey identifies a stream (e.g. a 5-tuple hash computed by the
// parser).
type FlowKey uint64

// flowEntry is one cached stream decision: the program epoch it was
// compiled under, its expiry, and its ring slot, whose words in the
// cache's slab are the decision. It holds no pointer, so the collector
// never scans the entries map.
type flowEntry struct {
	gen     uint64
	expires time.Duration
	slot    int32
}

// flowCache implements stream subscriptions (paper §VII-B): "Subscribing
// to streams where the header is only present in the first packet would
// require the switch to store the matching rule of the first packet, and
// apply it to subsequent packets in the stream." The first packet of a
// flow carries the application header; its forwarding decision, the
// packet's union mask, is cached under the flow key and applied to
// header-less continuation packets.
//
// Decisions are epoch-tagged: a lookup only returns entries installed
// under the currently-running program generation, whose dictionary their
// bits index, so a decision compiled from a program that has since been
// replaced by Install can never forward a packet (the stale §VII-B
// stream-state bug) and Install need not visit the cache. The cache is
// not internally synchronized: the switch lock guards it.
type flowCache struct {
	entries map[FlowKey]flowEntry
	// ring holds each slot's flow, in bijection with entries: a key
	// leaves both only by eviction. It grows to cap; then a new flow
	// takes the oldest flow's slot, next, and the evicted key's words.
	ring []FlowKey
	next int
	// words holds stride words per ring slot: a decision zero-extended to
	// the widest W installed so far.
	words  []uint64
	stride int
	cap    int
	ttl    time.Duration
}

// newFlowCache returns an empty cache: most switches never see a stream.
func newFlowCache(capacity int, ttl time.Duration) *flowCache {
	return &flowCache{entries: make(map[FlowKey]flowEntry), cap: capacity, ttl: ttl}
}

// install caches a flow's decision, union's words, under program
// generation gen, evicting the oldest flow at capacity.
func (c *flowCache) install(key FlowKey, union []uint64, now time.Duration, gen uint64) {
	e, ok := c.entries[key]
	if !ok {
		if len(c.ring) < c.cap {
			e.slot = int32(len(c.ring))
			c.ring = append(c.ring, key)
			c.words = append(c.words, make([]uint64, c.stride)...)
		} else {
			e.slot = int32(c.next)
			delete(c.entries, c.ring[c.next])
			c.ring[c.next] = key
			c.next = (c.next + 1) % c.cap
		}
	}
	if len(union) > c.stride {
		c.restride(len(union))
	}
	dst := c.words[int(e.slot)*c.stride:][:c.stride]
	clear(dst[copy(dst, union):])
	e.gen, e.expires = gen, now+c.ttl
	c.entries[key] = e
}

// restride widens every slot to stride words.
func (c *flowCache) restride(stride int) {
	words := make([]uint64, len(c.ring)*stride)
	for s := range c.ring {
		copy(words[s*stride:], c.words[s*c.stride:][:c.stride])
	}
	c.words, c.stride = words, stride
}

// lookup returns the cached decision for a flow, refreshing its TTL; the
// words are valid until the next install. Expired entries and entries
// from a different program generation are dead: they miss but keep their
// slot, which the flow's next install overwrites in place.
func (c *flowCache) lookup(key FlowKey, now time.Duration, gen uint64) ([]uint64, bool) {
	e, ok := c.entries[key]
	if !ok || now > e.expires || e.gen != gen {
		return nil, false
	}
	e.expires = now + c.ttl
	c.entries[key] = e
	return c.words[int(e.slot)*c.stride:][:c.stride], true
}

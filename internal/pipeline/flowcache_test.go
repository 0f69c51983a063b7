package pipeline

import (
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
)

// TestStreamSubscription exercises §VII-B: the first packet of a stream
// carries the application header and installs the flow decision;
// header-less continuation packets follow it.
func TestStreamSubscription(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)\nstock == GOOGL: fwd(2)", compiler.Options{})
	const flow = FlowKey(0xABCD)

	// Continuation before any header packet: dropped (miss).
	if out := sw.Process(&Packet{In: 0, Flow: flow}, 0); len(out) != 0 {
		t.Fatalf("cold continuation forwarded: %+v", out)
	}
	if st := sw.Stats(); st.FlowMisses != 1 {
		t.Errorf("misses = %d", st.FlowMisses)
	}

	// First packet installs the decision (multicast to 1 and 2).
	first := sw.Process(&Packet{In: 0, Flow: flow, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 1)}}, 0)
	if len(first) != 2 {
		t.Fatalf("first packet deliveries: %+v", first)
	}

	// Continuations follow without re-parsing the header.
	cont := sw.Process(&Packet{In: 0, Flow: flow, Bytes: 1000}, time.Millisecond)
	if len(cont) != 2 || cont[0].Port != 1 || cont[1].Port != 2 {
		t.Fatalf("continuation deliveries: %+v", cont)
	}
	if st := sw.Stats(); st.FlowHits != 1 {
		t.Errorf("hits = %d", st.FlowHits)
	}

	// Ingress suppression applies to continuations too.
	viaPort1 := sw.Process(&Packet{In: 1, Flow: flow}, 2*time.Millisecond)
	if len(viaPort1) != 1 || viaPort1[0].Port != 2 {
		t.Fatalf("ingress suppression: %+v", viaPort1)
	}

	// TTL expiry evicts the flow.
	late := sw.Process(&Packet{In: 0, Flow: flow}, 2*time.Minute)
	if len(late) != 0 {
		t.Fatalf("expired flow still forwarded: %+v", late)
	}
}

// TestStreamNonMatchingFirstPacket: a stream whose first packet matches
// nothing caches the drop decision.
func TestStreamNonMatchingFirstPacket(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	const flow = FlowKey(7)
	sw.Process(&Packet{In: 0, Flow: flow, Msgs: []*spec.Message{itchMsg(sp, "MSFT", 1, 1)}}, 0)
	out := sw.Process(&Packet{In: 0, Flow: flow}, time.Millisecond)
	if len(out) != 0 {
		t.Fatalf("continuation of dropped stream forwarded: %+v", out)
	}
	// It was a hit (cached drop), not a miss.
	if st := sw.Stats(); st.FlowHits != 1 || st.FlowMisses != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFlowCacheEviction(t *testing.T) {
	c := newFlowCache(4, time.Second)
	union := []uint64{1 << 1}
	for i := 0; i < 10; i++ {
		c.install(FlowKey(i), union, 0, 0)
	}
	if len(c.entries) != 4 {
		t.Fatalf("size = %d, want 4 (capacity)", len(c.entries))
	}
	// An evicted flow's slot is the new flow's: the slab never outgrows
	// the ring.
	if len(c.words) != 4*c.stride {
		t.Fatalf("slab holds %d words for 4 slots of %d", len(c.words), c.stride)
	}
	// Oldest evicted, newest present.
	if _, ok := c.lookup(FlowKey(0), 0, 0); ok {
		t.Error("oldest flow still cached")
	}
	if words, ok := c.lookup(FlowKey(9), 0, 0); !ok || words[0] != union[0] {
		t.Errorf("newest flow: %v, %v", words, ok)
	}
	// Reinstalling an existing key must not grow the ring.
	c.install(FlowKey(9), union, 0, 0)
	if len(c.entries) != 4 {
		t.Errorf("size after reinstall = %d", len(c.entries))
	}

	// Nor must reinstalling a key whose entry died (expired here; a
	// stale generation is the same branch): a lookup that dropped the
	// map entry but left its ring slot made the next capacity eviction
	// pop that old slot and delete the fresh decision.
	c = newFlowCache(2, time.Second)
	c.install(1, union, 0, 0)
	if _, ok := c.lookup(1, time.Minute, 0); ok {
		t.Fatal("expired flow still cached")
	}
	c.install(1, union, time.Minute, 0)
	c.install(2, union, time.Minute, 0)
	for _, k := range []FlowKey{1, 2} {
		if _, ok := c.lookup(k, time.Minute, 0); !ok {
			t.Errorf("flow %d evicted from a cache of 2 holding 2 flows (ring %v)", k, c.ring)
		}
	}
	if len(c.ring) != len(c.entries) {
		t.Errorf("ring %v and map (%d entries) out of step", c.ring, len(c.entries))
	}

	// A wider decision (a program of more ports) widens every slot and
	// keeps the narrower ones' words.
	c.install(3, []uint64{1, 1 << 63}, time.Minute, 1)
	if words, ok := c.lookup(2, time.Minute, 0); !ok || len(words) != 2 || words[0] != union[0] || words[1] != 0 {
		t.Errorf("narrow decision after restride: %v, %v", words, ok)
	}
	if words, ok := c.lookup(3, time.Minute, 1); !ok || words[0] != 1 || words[1] != 1<<63 {
		t.Errorf("wide decision: %v, %v", words, ok)
	}
}

func TestFlowCacheTTLRefresh(t *testing.T) {
	c := newFlowCache(10, 100*time.Millisecond)
	c.install(1, []uint64{1 << 3}, 0, 0)
	// Touch at 80ms: refreshes to 180ms.
	if _, ok := c.lookup(1, 80*time.Millisecond, 0); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := c.lookup(1, 150*time.Millisecond, 0); !ok {
		t.Fatal("refresh did not extend TTL")
	}
	if _, ok := c.lookup(1, 400*time.Millisecond, 0); ok {
		t.Fatal("entry never expired")
	}
}

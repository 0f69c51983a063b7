package compiler

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// Egress is the port-mask form of a program's leaf table that the packet
// path reads (DESIGN.md §4c), derived by Reindex beside the walk. Leaf
// slot s (0 is drop, s ≥ 1 is Leaf[s-1], as the walk numbers them) has a
// port set of W words: bit b is set when the leaf forwards to Ports[b].
// Union is then OR, membership a bit test, and a replica per set bit in
// ascending order is a replica per port in port order. A mask of two or
// more ports is a multicast group (§VII: one per distinct port set), so
// the group table is these rows interned.
type Egress struct {
	// Ports is the program's port dictionary: the distinct ports of every
	// leaf, ascending, negative ones such as routing.UpPort included.
	Ports []int
	// W is the word count of every mask, ⌈len(Ports)/64⌉, fixed per
	// program.
	W int
	// masks holds slot s's words at masks[s*W : s*W+W].
	masks []uint64
	// heavy has bit s set when slot s's leaf has Updates or Custom
	// actions: only then need the packet path read its *LeafEntry.
	heavy []uint64
	// groups[s] is slot s's multicast group, -1 for one port or none;
	// groups are numbered in slot order of first use.
	groups  []int32
	ngroups int
}

// Mask returns leaf slot s's port set, W words. The caller must not
// modify it.
func (e *Egress) Mask(s int) []uint64 { return e.masks[s*e.W : s*e.W+e.W] }

// Heavy reports whether leaf slot s (s ≥ 1) has Updates or Custom
// actions.
func (e *Egress) Heavy(s int) bool { return e.heavy[s>>6]>>(s&63)&1 != 0 }

// Group returns leaf slot s's multicast group, or -1 when its leaf
// forwards to at most one port.
func (e *Egress) Group(s int) int { return int(e.groups[s]) }

// Groups returns the number of multicast groups, the distinct masks of
// two or more ports.
func (e *Egress) Groups() int { return e.ngroups }

// Bit returns the mask word and bit of port; ok is false when no leaf
// forwards to it.
func (e *Egress) Bit(port int) (word int, bit uint64, ok bool) {
	if len(e.Ports) == 0 || port < e.Ports[0] || port > e.Ports[len(e.Ports)-1] {
		return 0, 0, false
	}
	// The last entry <= port, searched as the walk searches its bounds.
	b, n := 0, len(e.Ports)
	for n > 1 {
		half := n >> 1
		if e.Ports[b+half] <= port {
			b += half
		}
		n -= half
	}
	return b >> 6, 1 << (b & 63), e.Ports[b] == port
}

// newEgress derives the dictionary, masks, heavy bits and multicast groups
// of leaves.
func newEgress(leaves []*LeafEntry) Egress {
	var e Egress
	for _, le := range leaves {
		for _, port := range le.Actions.Ports {
			if i, ok := slices.BinarySearch(e.Ports, port); !ok {
				e.Ports = slices.Insert(e.Ports, i, port)
			}
		}
	}
	e.W = (len(e.Ports) + 63) / 64
	slots := len(leaves) + 1
	e.masks = make([]uint64, slots*e.W)
	e.heavy = make([]uint64, (slots+63)/64)
	e.groups = make([]int32, slots)
	e.groups[0] = -1
	byMask := make(map[string]int32)
	key := make([]byte, 8*e.W)
	for i, le := range leaves {
		s := i + 1
		mask := e.Mask(s)
		for _, port := range le.Actions.Ports {
			w, bit, _ := e.Bit(port)
			mask[w] |= bit
		}
		if len(le.Updates)+len(le.Actions.Custom) > 0 {
			e.heavy[s>>6] |= 1 << (s & 63)
		}
		n := 0
		for w, word := range mask {
			n += bits.OnesCount64(word)
			binary.LittleEndian.PutUint64(key[8*w:], word)
		}
		e.groups[s] = -1
		if n > 1 {
			g, ok := byMask[string(key)]
			if !ok {
				g = int32(e.ngroups)
				e.ngroups++
				byMask[string(key)] = g
			}
			e.groups[s] = g
		}
	}
	return e
}

// Egress returns the port-mask form of p's leaves. It is p's own and
// changes only with Reindex.
func (p *Program) Egress() *Egress { return &p.walk.egress }

// LeafSlot walks the tables for m, as Lookup does, and returns the leaf
// slot reached: 0 for drop with no leaf row, s ≥ 1 for Leaf[s-1].
func (p *Program) LeafSlot(m *spec.Message, st subscription.StateReader) int {
	return p.walk.lookup(m, st, m.Spec() != p.Spec)
}

// LeafAt returns the leaf row of slot s, nil for slot 0.
func (p *Program) LeafAt(s int) *LeafEntry {
	if s == 0 {
		return nil
	}
	return p.walk.leaves[s]
}

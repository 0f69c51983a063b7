package subscription

import (
	"slices"
	"sort"
	"strings"
)

// ActionSet is the merged outcome of all rules matching a packet. When
// multiple filters overlap, their fwd ports are merged into one multicast
// set (paper §V-D: "the actions fwd(1) and fwd(2) are merged into the
// single action fwd(1,2)"); custom actions are deduplicated.
type ActionSet struct {
	// Ports is the sorted, deduplicated union of fwd ports.
	Ports []int
	// Custom holds non-fwd actions, deduplicated (Action.Equal) and sorted
	// by Key.
	Custom []Action
}

// Add merges an action into the set.
func (s *ActionSet) Add(a Action) {
	if a.IsFwd() {
		for _, p := range a.Ports {
			s.addPort(p)
		}
		return
	}
	if s.Covers(a) {
		return
	}
	s.Custom = append(s.Custom, a)
	sort.Slice(s.Custom, func(i, j int) bool { return s.Custom[i].Key() < s.Custom[j].Key() })
}

func (s *ActionSet) addPort(p int) {
	i := sort.SearchInts(s.Ports, p)
	if i < len(s.Ports) && s.Ports[i] == p {
		return
	}
	s.Ports = append(s.Ports, 0)
	copy(s.Ports[i+1:], s.Ports[i:])
	s.Ports[i] = p
}

// Merge merges another action set into this one: one linear merge of the
// two sorted port lists into a slice allocated once — exactly the union's
// size when the lists are disjoint, as when the emitter merges into an empty
// set — which shares no storage with either input.
func (s *ActionSet) Merge(o ActionSet) {
	if len(o.Ports) > 0 {
		s.Ports = UnionPorts(make([]int, 0, len(s.Ports)+len(o.Ports)), s.Ports, o.Ports)
	}
	for _, c := range o.Custom {
		s.Add(c)
	}
}

// UnionPorts appends the sorted, deduplicated union of two sorted,
// deduplicated port lists to dst, which must not overlap them.
func UnionPorts(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case a[0] > b[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// Covers reports whether the set already carries every effect of a under
// the §V-D merge: each of a fwd action's ports (so the empty fwd(), a
// drop, is covered by any set), or the custom action itself.
func (s ActionSet) Covers(a Action) bool {
	if a.IsFwd() {
		for _, p := range a.Ports {
			if _, ok := slices.BinarySearch(s.Ports, p); !ok {
				return false
			}
		}
		return true
	}
	for _, c := range s.Custom {
		if c.Equal(a) {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the set carries no forwarding decision — the
// packet is dropped.
func (s ActionSet) IsEmpty() bool { return len(s.Ports) == 0 && len(s.Custom) == 0 }

// Key returns a canonical identity for the set. Equal keys denote equal
// forwarding behaviour; the compiler uses keys to share BDD terminals and
// multicast groups.
func (s ActionSet) Key() string {
	var b strings.Builder
	b.WriteString("fwd(")
	for i, p := range s.Ports {
		if i > 0 {
			b.WriteByte(',')
		}
		writeInt(&b, p)
	}
	b.WriteByte(')')
	for _, c := range s.Custom {
		b.WriteByte(';')
		b.WriteString(c.Key())
	}
	return b.String()
}

// Equal reports whether two action sets are identical — whether their Keys
// are equal — without formatting either.
func (s ActionSet) Equal(o ActionSet) bool {
	if !slices.Equal(s.Ports, o.Ports) || len(s.Custom) != len(o.Custom) {
		return false
	}
	for i := range s.Custom {
		if !s.Custom[i].Equal(o.Custom[i]) {
			return false
		}
	}
	return true
}

// Hash is Key without the formatting: Equal sets hash alike. The BDD
// builder interns terminals by it.
func (s ActionSet) Hash() uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for _, p := range s.Ports {
		h = (h ^ uint64(p)) * prime
	}
	// Custom actions hash their name and arguments, which Equal compares.
	str := func(x string) {
		for i := 0; i < len(x); i++ {
			h = (h ^ uint64(x[i])) * prime
		}
	}
	for _, c := range s.Custom {
		str(";")
		str(c.Name)
		str("(")
		for i, a := range c.Args {
			if i > 0 {
				str(",")
			}
			str(a)
		}
		str(")")
	}
	return h
}

// Clone returns an independent copy.
func (s ActionSet) Clone() ActionSet {
	c := ActionSet{Ports: append([]int(nil), s.Ports...)}
	c.Custom = append(c.Custom, s.Custom...)
	return c
}

func (s ActionSet) String() string { return s.Key() }

func writeInt(b *strings.Builder, v int) {
	if v < 0 {
		b.WriteByte('-')
		v = -v
	}
	if v >= 10 {
		writeInt(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}

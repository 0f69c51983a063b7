package spec

import (
	"fmt"
	"strings"
)

// Value is a dynamically-typed field value: either an unsigned integer
// (stored in an int64; all paper fields fit) or a fixed-width string.
type Value struct {
	Kind FieldType
	Int  int64
	Str  string
}

// IntVal constructs an integer Value.
func IntVal(v int64) Value { return Value{Kind: IntField, Int: v} }

// StrVal constructs a string Value. Trailing spaces are trimmed so that
// right-padded wire strings (e.g. ITCH "GOOGL   ") compare equal to their
// subscription constants.
func StrVal(v string) Value {
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == 0) {
		v = v[:len(v)-1]
	}
	return Value{Kind: StringField, Str: v}
}

func (v Value) String() string {
	if v.Kind == StringField {
		return fmt.Sprintf("%q", v.Str)
	}
	return fmt.Sprintf("%d", v.Int)
}

// Equal reports exact value equality (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == StringField {
		return v.Str == o.Str
	}
	return v.Int == o.Int
}

// Message is a decoded packet presented to the subscription pipeline: the
// values of the spec's subscribable fields, in spec declaration order.
// Fields belonging to headers absent from a given packet are marked not
// present; predicates on absent fields evaluate to false.
type Message struct {
	spec   *Spec
	values []Value
	// bits is one bit vector: field presence (bit i = subscribable index
	// i), then header validity (bit len(values)+i = header i in parse
	// order). When fields plus headers fit one word — every spec in this
	// repository — it is the message's own inline word, which keeps the
	// message one 64-byte cache line and presence allocation-free.
	bits   []uint64
	inline [inlineWords]uint64
}

const inlineWords = 1

// NewMessage allocates an empty message for s.
func NewMessage(s *Spec) *Message {
	m := &Message{}
	m.init(s, make([]Value, len(s.subscribable)), maskStorage(s, 1))
	return m
}

// NewMessages allocates n empty messages for s as one slab: the
// messages, their value storage and the returned pointer slice are one
// allocation each, whatever n is. A decoded frame's messages are built
// this way; they live and die together.
func NewMessages(s *Spec, n int) []*Message {
	nf, nw := len(s.subscribable), s.maskWords
	slab := make([]Message, n)
	values := make([]Value, n*nf)
	wide := maskStorage(s, n)
	out := make([]*Message, n)
	for i := range slab {
		var bits []uint64
		if wide != nil {
			bits = wide[i*nw : (i+1)*nw]
		}
		slab[i].init(s, values[i*nf:(i+1)*nf], bits)
		out[i] = &slab[i]
	}
	return out
}

// maskStorage returns out-of-line mask words for n messages of s, or nil
// when the masks fit the messages' inline words.
func maskStorage(s *Spec, n int) []uint64 {
	if s.maskWords <= inlineWords {
		return nil
	}
	return make([]uint64, n*s.maskWords)
}

func (m *Message) init(s *Spec, values []Value, bits []uint64) {
	if bits == nil {
		bits = m.inline[:s.maskWords]
	}
	m.spec, m.values, m.bits = s, values, bits
}

// Spec returns the spec this message was decoded against.
func (m *Message) Spec() *Spec { return m.spec }

// Reset clears all fields so the message can be reused across packets.
func (m *Message) Reset() { clear(m.bits) }

// MarkHeader sets the validity bit of the named header — what the packet
// parser does when it extracts the header. Setting any field of a header
// marks it implicitly.
func (m *Message) MarkHeader(name string) {
	if i := m.spec.HeaderIndex(name); i >= 0 {
		m.MarkHeaderIndex(i)
	}
}

// MarkHeaderIndex is MarkHeader by parse-order position (what a compiled
// codec holds, so the wire path does no name lookups).
func (m *Message) MarkHeaderIndex(i int) { m.setBit(uint(len(m.values) + i)) }

func (m *Message) setBit(b uint) { m.bits[b>>6] |= 1 << (b & 63) }

func (m *Message) bit(b uint) bool { return m.bits[b>>6]>>(b&63)&1 != 0 }

// HeaderMask returns the header validity bits packed into a uint64,
// bit i = header i in parse order. Headers beyond the first 64 are not
// represented (callers that need the mask as an identity must refuse
// specs that wide).
func (m *Message) HeaderMask() uint64 {
	first := uint(len(m.values))
	w, sh := first>>6, first&63
	mask := m.bits[w] >> sh
	if sh != 0 && int(w)+1 < len(m.bits) {
		mask |= m.bits[w+1] << (64 - sh)
	}
	return mask
}

// HeaderPresent reports the header's validity bit.
func (m *Message) HeaderPresent(name string) bool {
	return m.HeaderValid(m.spec.HeaderIndex(name))
}

// Set assigns a field value by field reference name.
func (m *Message) Set(ref string, v Value) error {
	f, ok := m.spec.Field(ref)
	if !ok {
		return fmt.Errorf("message: unknown field %q", ref)
	}
	idx, ok := m.spec.SubscribableIndex(f)
	if !ok {
		return fmt.Errorf("message: field %q is not subscribable", ref)
	}
	m.SetIndex(idx, v)
	return nil
}

// MustSet is Set, panicking on error (for tests and generators).
func (m *Message) MustSet(ref string, v Value) {
	if err := m.Set(ref, v); err != nil {
		panic(err)
	}
}

// HeaderValid is HeaderPresent by parse-order position in the message's
// own spec (what a compiled walk holds); false for an index the spec
// does not have.
func (m *Message) HeaderValid(i int) bool {
	return i >= 0 && i < len(m.spec.Headers) && m.bit(uint(len(m.values)+i))
}

// SetIndex assigns the field at subscribable index idx and marks the
// field's header valid.
func (m *Message) SetIndex(idx int, v Value) {
	m.values[idx] = v
	m.setBit(uint(idx))
	m.MarkHeaderIndex(m.spec.subHeader[idx])
}

// Get returns the value at subscribable index idx and whether it is present.
func (m *Message) Get(idx int) (Value, bool) {
	if idx < 0 || idx >= len(m.values) || !m.bit(uint(idx)) {
		return Value{}, false
	}
	return m.values[idx], true
}

// GetRef returns the value of the named field.
func (m *Message) GetRef(ref string) (Value, bool) {
	f, ok := m.spec.Field(ref)
	if !ok {
		return Value{}, false
	}
	idx, ok := m.spec.SubscribableIndex(f)
	if !ok {
		return Value{}, false
	}
	return m.Get(idx)
}

// Clone returns an independent copy of the message.
func (m *Message) Clone() *Message {
	c := &Message{}
	c.init(m.spec, append([]Value(nil), m.values...), maskStorage(m.spec, 1))
	copy(c.bits, m.bits)
	return c
}

func (m *Message) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, f := range m.spec.SubscribableFields() {
		v, ok := m.Get(i)
		if !ok {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%s", f.QName(), v)
	}
	b.WriteByte('}')
	return b.String()
}

package spec

import (
	"fmt"
	"strings"
	"sync"
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
//
// A message stores no Value. It holds one bit vector — field presence
// (bit i = subscribable index i), then header validity (bit fields+i =
// header i in parse order) — and one 64-bit word per subscribable field:
// an integer field's word is its value, a string field's is
// offset<<32 | length into strs, the one backing string of the message.
// Which of the two a word is comes from the spec, not from a tag stored
// beside it. For a spec of at most inlineFields fields whose bits fit one
// word (every single-application spec in this repository) all of it is in
// the struct, and spec, bits, the field words and the pointer of strs are
// its first 64 bytes: what a table walk reads of a message, string bytes
// aside. A wider spec (the eight-application merge) keeps its bit words
// and field words in wide, carved like the message from a shared chunk.
type Message struct {
	spec  *Spec
	bits  [1]uint64
	words [inlineFields]uint64
	strs  string
	wide  []uint64 // nil, or s.maskWords bit words then one word per field
}

// inlineFields makes a Message 96 bytes — 8 (spec) + 8 (bits) + 5×8 +
// 16 (strs) + 24 (wide) — which is an allocator size class, so nothing
// is lost to rounding; five words are what the widest single-application
// specs (INT, highway) need, and each word more would cost every decoded
// message 8 bytes.
const inlineFields = 5

// NewMessage allocates an empty message for s.
func NewMessage(s *Spec) *Message {
	m := &Message{spec: s}
	if s.wideWords > 0 {
		m.wide = make([]uint64, s.wideWords)
	}
	return m
}

// Chunk lengths of the slabs NewMessages carves from. An object over
// 512 bytes that holds pointers carries an 8-byte allocator header, so
// 85 messages (8160 bytes) and 1023 pointers (8184 bytes) fill the
// 8 KB size class exactly; the wide words hold no pointer and have no
// header.
const (
	msgChunk  = 85
	ptrChunk  = 1023
	wideChunk = 1024
)

// slabs is one P's unused tail of the current message, pointer and
// wide-word chunks.
type slabs struct {
	msgs []Message
	ptrs []*Message
	wide []uint64
}

// slabPool hands each P its own slabs, so carving needs no lock.
var slabPool sync.Pool

// carve returns the next n elements of *free, refilling it with a fresh
// chunk of at least n when fewer are left. A region is handed out once:
// the slice is capped, and a chunk that runs out is left to the
// collector, which frees it once no carved element is live.
func carve[T any](free *[]T, n, chunk int) []T {
	if len(*free) < n {
		*free = make([]T, max(n, chunk))
	}
	out := (*free)[:n:n]
	*free = (*free)[n:]
	return out
}

// NewMessages returns n empty messages for s. The messages, the returned
// pointer slice and a wide spec's out-of-line words are carved from
// per-P chunks, so a small slab costs no allocation; no memory is handed
// out twice, so the messages are the caller's to keep and to change like
// any other. A decoded frame's messages are built this way. The cost is
// retention: a kept message keeps its chunks (8 KB each) alive.
func NewMessages(s *Spec, n int) []*Message {
	c, _ := slabPool.Get().(*slabs)
	if c == nil {
		c = new(slabs)
	}
	slab := carve(&c.msgs, n, msgChunk)
	out := carve(&c.ptrs, n, ptrChunk)
	nw := s.wideWords
	var wide []uint64
	if nw > 0 {
		wide = carve(&c.wide, n*nw, wideChunk)
	}
	slabPool.Put(c)
	for i := range slab {
		slab[i].spec = s
		if nw > 0 {
			slab[i].wide = wide[i*nw : (i+1)*nw : (i+1)*nw]
		}
		out[i] = &slab[i]
	}
	return out
}

// Spec returns the spec this message was decoded against.
func (m *Message) Spec() *Spec { return m.spec }

// mask returns the message's bit vector.
func (m *Message) mask() []uint64 {
	if m.wide != nil {
		return m.wide[:m.spec.maskWords]
	}
	return m.bits[:]
}

// fields returns the message's field words, indexed by subscribable index.
func (m *Message) fields() []uint64 {
	if m.wide != nil {
		return m.wide[m.spec.maskWords:]
	}
	return m.words[:len(m.spec.subscribable)]
}

// Reset clears all fields so the message can be reused across packets.
func (m *Message) Reset() {
	clear(m.mask())
	m.strs = ""
}

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
func (m *Message) MarkHeaderIndex(i int) { m.setBit(uint(len(m.spec.subscribable) + i)) }

func (m *Message) setBit(b uint) { m.mask()[b>>6] |= 1 << (b & 63) }

func (m *Message) bit(b uint) bool { return m.mask()[b>>6]>>(b&63)&1 != 0 }

// HeaderMask returns the header validity bits packed into a uint64,
// bit i = header i in parse order. Headers beyond the first 64 are not
// represented (callers that need the mask as an identity must refuse
// specs that wide).
func (m *Message) HeaderMask() uint64 {
	bits := m.mask()
	first := uint(len(m.spec.subscribable))
	w, sh := first>>6, first&63
	mask := bits[w] >> sh
	if sh != 0 && int(w)+1 < len(bits) {
		mask |= bits[w+1] << (64 - sh)
	}
	return mask
}

// HeaderPresent reports the header's validity bit.
func (m *Message) HeaderPresent(name string) bool {
	return m.HeaderValid(m.spec.HeaderIndex(name))
}

// Set assigns a field value by field reference name. The value must be
// of the field's kind.
func (m *Message) Set(ref string, v Value) error {
	f, ok := m.spec.Field(ref)
	if !ok {
		return fmt.Errorf("message: unknown field %q", ref)
	}
	idx, ok := m.spec.SubscribableIndex(f)
	if !ok {
		return fmt.Errorf("message: field %q is not subscribable", ref)
	}
	if v.Kind != f.Type {
		return fmt.Errorf("message: field %q is %s, value %s is %s", ref, f.Type, v, v.Kind)
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
	return i >= 0 && i < len(m.spec.Headers) && m.bit(uint(len(m.spec.subscribable)+i))
}

// SetIndex assigns the field at subscribable index idx and marks the
// field's header valid. It is the entry point of code that already holds
// the index and does not check v.Kind: the field's kind comes from the
// spec, so an integer field stores v.Int and a string field v.Str
// whatever v says it is (Set is the checked form).
func (m *Message) SetIndex(idx int, v Value) {
	w := uint64(v.Int)
	if m.spec.subString[idx] {
		w = m.putStr(idx, v.Str)
	}
	m.fields()[idx] = w
	m.setBit(uint(idx))
	m.MarkHeaderIndex(m.spec.subHeader[idx])
}

// putStr makes s the bytes of string field idx and returns the field's
// word. The backing string is rebuilt from the other string fields that
// are present, so overwriting a field does not grow it; a message's only
// string is kept as it is, not copied.
func (m *Message) putStr(idx int, s string) uint64 {
	keep, fields := "", m.fields()
	for j, str := range m.spec.subString {
		if str && j != idx && m.bit(uint(j)) {
			old := m.str(fields[j])
			fields[j] = StrWord(len(keep), len(old))
			keep += old
		}
	}
	m.strs = keep + s
	return StrWord(len(keep), len(s))
}

// StrWord is the word of a string field whose n bytes begin at off in
// the message's backing string.
func StrWord(off, n int) uint64 { return uint64(off)<<32 | uint64(n) }

// str returns the bytes a string field's word refers to.
func (m *Message) str(w uint64) string {
	off, n := w>>32, w&(1<<32-1)
	return m.strs[off : off+n]
}

// Fill is the wire codec's entry point: it ORs bits (presence of the
// fields the codec is about to store, and their header's validity, laid
// out as the message's own bit vector) into the message, appends strs to
// the message's backing string (a message with none yet takes strs as it
// is, uncopied), and returns the field words for the codec to store into
// together with the offset strs begins at, which the codec adds to the
// offsets it passes to StrWord. Bytes of a header decoded earlier stay
// where they are, until Reset drops them all.
func (m *Message) Fill(bits []uint64, strs string) (fields []uint64, base int) {
	mask := m.mask()
	for i, b := range bits {
		mask[i] |= b
	}
	switch {
	case m.strs == "":
		m.strs = strs
	case strs != "":
		base = len(m.strs)
		m.strs += strs
	}
	return m.fields(), base
}

// Get returns the value at subscribable index idx and whether it is present.
func (m *Message) Get(idx int) (Value, bool) {
	s := m.spec
	if idx < 0 || idx >= len(s.subscribable) || !m.bit(uint(idx)) {
		return Value{}, false
	}
	w := m.fields()[idx]
	if s.subString[idx] {
		return Value{Kind: StringField, Str: m.str(w)}, true
	}
	return Value{Kind: IntField, Int: int64(w)}, true
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

// Clone returns an independent copy of the message. The copy shares the
// original's backing string, which is immutable.
func (m *Message) Clone() *Message {
	c := new(Message)
	*c = *m
	if m.wide != nil {
		c.wide = append([]uint64(nil), m.wide...)
	}
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

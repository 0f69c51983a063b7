package spec

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"
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
// offset<<32 | length into the message's string bytes. Which of the two a
// word is comes from the spec, not from a tag stored beside it. For a
// spec of at most inlineFields fields whose bits fit one word (every
// single-application spec in this repository) all of it is in the
// struct, and ext is the base of the string bytes: the words already say
// where each string starts and how long it is, so no string header
// repeats it. A wider spec (the eight-application merge) keeps its bit
// words, its field words and then its string bytes in one out-of-line
// block of words, and ext points to that block.
type Message struct {
	spec  *Spec
	bits  [1]uint64
	words [inlineFields]uint64
	ext   unsafe.Pointer // string bytes (nil: none), or a wide spec's block
}

// inlineFields makes a Message 64 bytes — 8 (spec) + 8 (bits) + 5×8 +
// 8 (ext) — one cache line and an allocator size class; five words are
// what the widest single-application specs (INT, highway) need, and each
// word more would cost every decoded message 8 bytes.
const inlineFields = 5

// strAt returns the n bytes at base+off as a string. The bytes must never
// change again.
func strAt(base unsafe.Pointer, off, n uint64) string {
	return unsafe.String((*byte)(unsafe.Add(base, off)), n)
}

// strBase returns the address of s's first byte, nil for "".
func strBase(s string) unsafe.Pointer {
	if s == "" {
		return nil
	}
	return unsafe.Pointer(unsafe.StringData(s))
}

// NewMessage allocates an empty message for s.
func NewMessage(s *Spec) *Message {
	m := &Message{spec: s}
	if s.wideWords > 0 {
		m.ext = unsafe.Pointer(&make([]uint64, s.wideWords)[0])
	}
	return m
}

// Chunk lengths of the slabs Carve carves from. An object over 512 bytes
// that holds pointers carries an 8-byte allocator header, so 127
// messages (8128 bytes) and 1023 pointers (8184 bytes) fit the 8 KB size
// class; the wide words and the string bytes hold no pointer and have no
// header.
const (
	msgChunk  = 127
	ptrChunk  = 1023
	wideChunk = 1024
	strChunk  = 8192
)

// slabs is one P's unused tail of the current message, pointer,
// wide-word and string-byte chunks.
type slabs struct {
	msgs []Message
	ptrs []*Message
	wide []uint64
	strs []byte
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

// takeSlabs starts a visit to the calling P's slabs; slabPool.Put ends
// it.
func takeSlabs() *slabs {
	c, _ := slabPool.Get().(*slabs)
	if c == nil {
		c = new(slabs)
	}
	return c
}

// messages fills out with pointers to len(out) empty messages of s. The
// messages need not be contiguous, so a run that does not fit what is
// left of the message chunk takes that tail first and the rest from a
// fresh chunk: no chunk is abandoned with room in it. A wide spec's
// blocks are one carve.
func (c *slabs) messages(s *Spec, out []*Message) {
	nw := s.wideWords
	var wide []uint64
	if nw > 0 {
		wide = carve(&c.wide, len(out)*nw, wideChunk)
	}
	for done := 0; done < len(out); {
		if len(c.msgs) == 0 {
			c.msgs = make([]Message, msgChunk)
		}
		k := min(len(out)-done, len(c.msgs))
		slab := c.msgs[:k:k]
		c.msgs = c.msgs[k:]
		for i := range slab {
			slab[i].spec = s
			if nw > 0 {
				slab[i].ext = unsafe.Pointer(&wide[(done+i)*nw])
			}
			out[done+i] = &slab[i]
		}
		done += k
	}
}

// Carve returns n empty messages of s through one carved pointer slice
// (none for n = 0: string room alone, for a header decoded into a
// message that already exists), and room bytes for the caller to write
// their string bytes into before it hands them out (and gives a message
// its share through Fill), all
// carved from per-P chunks in one visit to the pool, so a small slab
// costs no allocation. No memory is handed out twice, so the messages
// are the caller's to keep and to change like any other. A decoded frame
// is built this way. The cost is retention: a kept message keeps its
// chunks (8 KB each) alive.
func Carve(s *Spec, n, room int) (out []*Message, strs []byte) {
	c := takeSlabs()
	out = carve(&c.ptrs, n, ptrChunk)
	c.messages(s, out)
	if room > 0 {
		strs = carve(&c.strs, room, strChunk)
	}
	slabPool.Put(c)
	return out, strs
}

// CarveOne is Carve for one message, with no pointer slot to hold it: a
// decoded report.
func CarveOne(s *Spec, room int) (m *Message, strs []byte) {
	c := takeSlabs()
	var one [1]*Message
	c.messages(s, one[:])
	if room > 0 {
		strs = carve(&c.strs, room, strChunk)
	}
	slabPool.Put(c)
	return one[0], strs
}

// NewMessages returns n empty messages for s, carved as Carve carves
// them.
func NewMessages(s *Spec, n int) []*Message {
	out, _ := Carve(s, n, 0)
	return out
}

// Spec returns the spec this message was decoded against.
func (m *Message) Spec() *Spec { return m.spec }

// block returns a wide spec's out-of-line words: bit words, field
// words, then as many words as the string bytes take.
func (m *Message) block(n int) []uint64 { return unsafe.Slice((*uint64)(m.ext), n) }

// mask returns the message's bit vector.
func (m *Message) mask() []uint64 {
	if s := m.spec; s.wideWords > 0 {
		return m.block(s.maskWords)
	}
	return m.bits[:]
}

// fields returns the message's field words, indexed by subscribable index.
func (m *Message) fields() []uint64 {
	if s := m.spec; s.wideWords > 0 {
		return m.block(s.wideWords)[s.maskWords:]
	}
	return m.words[:len(m.spec.subscribable)]
}

// Reset clears all fields so the message can be reused across packets.
func (m *Message) Reset() {
	clear(m.mask())
	if m.spec.wideWords == 0 {
		m.ext = nil
	}
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
//
// SetIndex and Fill are the only ways a field becomes present, and both
// keep the invariant the compiled walk relies on: a present field's
// header is valid (DESIGN.md §6). CheckHeaders tests it.
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
// word. The string bytes are rebuilt from the other string fields that
// are present, so overwriting a field does not grow them; a narrow
// message's only string is kept as it is, not copied.
func (m *Message) putStr(idx int, s string) uint64 {
	keep, fields := "", m.fields()
	for j, str := range m.spec.subString {
		if str && j != idx && m.bit(uint(j)) {
			old := m.str(fields[j])
			fields[j] = StrWord(len(keep), len(old))
			keep += old
		}
	}
	m.setStrs(keep + s)
	return StrWord(len(keep), len(s))
}

// setStrs makes b the message's string bytes. A narrow message points at
// b; a wide one moves to a fresh block of its words followed by b, so
// bytes handed out before, in the old block, never change.
func (m *Message) setStrs(b string) {
	nw := m.spec.wideWords
	if nw == 0 {
		m.ext = strBase(b)
		return
	}
	blk := make([]uint64, nw+(len(b)+7)/8)
	copy(blk, m.block(nw))
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&blk[0])), 8*len(blk))[8*nw:], b)
	m.ext = unsafe.Pointer(&blk[0])
}

// strLen returns how many of the message's string bytes its present
// string fields refer to: the string bytes end there.
func (m *Message) strLen() int {
	n, fields := 0, m.fields()
	for j, str := range m.spec.subString {
		if w := fields[j]; str && m.bit(uint(j)) {
			n = max(n, int(w>>32+w&(1<<32-1)))
		}
	}
	return n
}

// StrWord is the word of a string field whose n bytes begin at off in
// the message's string bytes.
func StrWord(off, n int) uint64 { return uint64(off)<<32 | uint64(n) }

// str returns the bytes a string field's word refers to.
func (m *Message) str(w uint64) string {
	off, n := w>>32, w&(1<<32-1)
	if n == 0 {
		return ""
	}
	base := m.ext
	if nw := m.spec.wideWords; nw > 0 {
		base = unsafe.Add(base, 8*nw)
	}
	return strAt(base, off, n)
}

// Fill is the wire codec's entry point: it ORs bits (presence of the
// fields the codec is about to store, and their header's validity, laid
// out as the message's own bit vector) into the message, appends strs —
// the header's string bytes, which the caller has written and never
// writes again — to the message's string bytes, and returns the field
// words for the codec to store into together with the offset strs begins
// at, which the codec adds to the offsets it passes to StrWord. A narrow
// message with no string bytes yet takes strs as they are, uncopied;
// otherwise the bytes are copied behind the ones the message holds,
// which stay where they are, until Reset drops them all.
//
// bits must set a header's validity wherever they set the presence of
// one of its fields, as HeaderBits does: a present field's header is
// valid.
func (m *Message) Fill(bits []uint64, strs []byte) (fields []uint64, base int) {
	if len(strs) > 0 {
		if m.ext == nil {
			m.ext = unsafe.Pointer(&strs[0])
		} else {
			base = m.strLen()
			m.setStrs(m.str(StrWord(0, base)) + string(strs))
		}
	}
	if m.spec.wideWords == 0 {
		m.bits[0] |= bits[0]
		return m.words[:len(m.spec.subscribable)], base
	}
	mask := m.mask()
	for i, b := range bits {
		mask[i] |= b
	}
	return m.fields(), base
}

// CheckHeaders returns an error naming the first present field whose
// header is not valid, nil when there is none: the invariant SetIndex and
// Fill keep.
func (m *Message) CheckHeaders() error {
	for idx, hi := range m.spec.subHeader {
		if m.bit(uint(idx)) && !m.HeaderValid(hi) {
			return fmt.Errorf("message: field %s is present, header %s is not valid",
				m.spec.subscribable[idx].QName(), m.spec.Headers[hi].Name)
		}
	}
	return nil
}

// Int is Get for an integer field without building a Value: the field's
// Value.Int and whether it is present. idx must be an integer field's;
// for a string field the result means nothing.
func (m *Message) Int(idx int) (int64, bool) {
	if uint(idx) >= uint(len(m.spec.subscribable)) || !m.bit(uint(idx)) {
		return 0, false
	}
	return int64(m.fields()[idx]), true
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

// Clone returns an independent copy of the message. A narrow copy shares
// the original's string bytes, which are immutable.
func (m *Message) Clone() *Message {
	c := new(Message)
	*c = *m
	if nw := m.spec.wideWords; nw > 0 {
		c.ext = unsafe.Pointer(&append([]uint64(nil), m.block(nw+(m.strLen()+7)/8)...)[0])
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

// Package packet provides wire-format encoding and decoding driven by
// message specs: the byte-level substrate under internal/formats.
//
// The codec packs header fields big-endian at bit granularity (P4
// semantics: fields occupy consecutive bits in declaration order), so
// specs with u4/u48/str8 fields all round-trip. A HeaderCodec compiles
// each field's access path once; decoding is then one inlined load (or a
// byte-wise shift-and-mask for unaligned widths) per subscribable field,
// stored as that field's word of a message (spec.Message.Fill). Following
// gopacket's DecodingLayerParser, nothing is allocated per field, per
// message or per frame: a frame's messages, the slice that holds them and
// one immutable copy of the bytes its subscribable string fields span are
// carved in one visit to spec's pool of append-only chunks
// (spec.Carve), which are refilled every hundred-odd messages and never
// handed out twice, so a decoded message is the caller's to keep. A kept
// message keeps its chunks alive. String bytes that fit a fresh
// message's spare field words (spec.Message.Spare: ITCH's 8 stock bytes,
// hICN's 16-byte name prefix) are copied there instead, once, and take
// no chunk. Encoding runs the same access paths
// the other way: an encoder resolves each field's FieldCodec once and
// writes a frame into one zeroed buffer with one Put per field, so a
// frame costs one allocation whatever its field or message count.
package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"camus/internal/spec"
)

// HeaderCodec encodes and decodes one fixed-width header of a spec.
type HeaderCodec struct {
	Spec   *spec.Spec
	Header *spec.Header

	size     int
	fields   []FieldCodec // every field, declaration order
	ints     []FieldCodec // the subscribable integer fields: what decoding loads
	strs     []FieldCodec // the subscribable string fields: what decoding copies
	bits     []uint64     // Spec.HeaderBits of the header: what decoding marks
	strBytes int          // bytes the subscribable string fields span
	// spare: the string bytes fit a message's spare field words
	// (Spec.SpareBytes), where DecodeNew and DecodeOne keep them.
	spare bool
}

// FieldCodec is the compiled access path of one header field: Uint reads
// it, Put writes it.
type FieldCodec struct {
	f     *spec.Field
	idx   int    // subscribable index, -1 if none
	off   int    // first byte of the header the field touches
	n     int    // bytes touched
	str   int    // offset among the header's subscribable string bytes, -1 if not one
	load  int    // n when the field is a whole 1/2/4/8-byte word, else 0
	shift uint   // low bits of the last byte that are not the field's
	mask  uint64 // the field's width in one bits
}

// NewHeaderCodec builds a codec for the named header.
func NewHeaderCodec(sp *spec.Spec, header string) (*HeaderCodec, error) {
	h, ok := sp.Header(header)
	if !ok {
		return nil, fmt.Errorf("packet: spec %s has no header %q", sp.Name, header)
	}
	c := &HeaderCodec{Spec: sp, Header: h, size: h.Bytes(), bits: sp.HeaderBits(sp.HeaderIndex(header))}
	for _, f := range h.Fields {
		start, end := f.Offset, f.Offset+f.Bits
		x := FieldCodec{f: f, idx: -1, str: -1, mask: ^uint64(0)}
		if f.Type == spec.StringField && start%8 != 0 {
			return nil, fmt.Errorf("packet: string field %s not byte aligned", f.QName())
		}
		if f.Type == spec.IntField && f.Bits > 64 {
			start = end - 64 // a Value carries the low 64 bits of a wider integer
		} else if f.Bits < 64 {
			x.mask = 1<<uint(f.Bits) - 1
		}
		x.off = start / 8
		x.n = (end+7)/8 - x.off
		x.shift = uint(x.n*8 - (end - x.off*8))
		if start%8 == 0 && x.shift == 0 && (x.n == 1 || x.n == 2 || x.n == 4 || x.n == 8) {
			x.load = x.n
		}
		if idx, ok := sp.SubscribableIndex(f); ok {
			x.idx = idx
			if f.Type == spec.StringField {
				x.str = c.strBytes
				c.strBytes += x.n
				c.strs = append(c.strs, x)
			} else {
				c.ints = append(c.ints, x)
			}
		}
		c.fields = append(c.fields, x)
	}
	c.spare = c.strBytes > 0 && c.strBytes <= sp.SpareBytes()
	return c, nil
}

// MustHeaderCodec is NewHeaderCodec, panicking on error.
func MustHeaderCodec(sp *spec.Spec, header string) *HeaderCodec {
	c, err := NewHeaderCodec(sp, header)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the encoded header size in bytes.
func (c *HeaderCodec) Size() int { return c.size }

// Field returns the access path of the named field, for encoders, which
// resolve every field they write once, and for decoders that read one
// framing field (a count, a length) from every packet.
func (c *HeaderCodec) Field(name string) (*FieldCodec, error) {
	for i := range c.fields {
		if c.fields[i].f.Name == name {
			return &c.fields[i], nil
		}
	}
	return nil, fmt.Errorf("packet: header %s has no field %q", c.Header.Name, name)
}

// MustField is Field, panicking on error.
func (c *HeaderCodec) MustField(name string) *FieldCodec {
	x, err := c.Field(name)
	if err != nil {
		panic(err)
	}
	return x
}

// Decode extracts the header from data into m, an existing message of
// the codec's spec — what a parser does when it walks a header stack into
// one message — and returns the remaining bytes. String fields point into
// an immutable copy of the bytes they span, added to whatever strings the
// message already holds, never into data: the caller may reuse its
// buffer.
func (c *HeaderCodec) Decode(data []byte, m *spec.Message) ([]byte, error) {
	if len(data) < c.size {
		return nil, fmt.Errorf("packet: %s needs %d bytes, have %d", c.Header.Name, c.size, len(data))
	}
	if m.Spec() != c.Spec {
		return nil, fmt.Errorf("packet: %s of spec %s decoded into a message of spec %s", c.Header.Name, c.Spec.Name, m.Spec().Name)
	}
	var room []byte
	if c.strBytes > 0 {
		_, room = spec.Carve(c.Spec, 0, c.strBytes)
	}
	c.extract(data, m, room)
	return data[c.size:], nil
}

// DecodeNew extracts n back-to-back instances of the header into n fresh
// messages and returns them and the remaining bytes. The messages, the
// slice that holds them and their string bytes are carved in one visit
// to the message pool (spec.Carve), and the batch is bounds-checked once.
// String bytes that fit a message's spare field words are kept there
// (spec.Message.Spare), and the string slab is not touched.
func (c *HeaderCodec) DecodeNew(data []byte, n int) ([]*spec.Message, []byte, error) {
	if len(data) < n*c.size {
		return nil, nil, fmt.Errorf("packet: %d x %s needs %d bytes, have %d", n, c.Header.Name, n*c.size, len(data))
	}
	k := c.slabBytes()
	out, strs := spec.Carve(c.Spec, n, n*k)
	for i, m := range out {
		c.extract(data[i*c.size:], m, c.room(m, strs[i*k:(i+1)*k]))
	}
	return out, data[n*c.size:], nil
}

// DecodeOne is DecodeNew for one header: the message, and no slice to
// hold it.
func (c *HeaderCodec) DecodeOne(data []byte) (*spec.Message, []byte, error) {
	if len(data) < c.size {
		return nil, nil, fmt.Errorf("packet: %s needs %d bytes, have %d", c.Header.Name, c.size, len(data))
	}
	m, strs := spec.CarveOne(c.Spec, c.slabBytes())
	c.extract(data, m, c.room(m, strs))
	return m, data[c.size:], nil
}

// slabBytes is how many string-slab bytes a fresh message of the header
// takes: none when its string bytes fit the message's spare words.
func (c *HeaderCodec) slabBytes() int {
	if c.spare {
		return 0
	}
	return c.strBytes
}

// room is where the header's string bytes go in m, a message just
// carved: its spare words, else slab, its share of the string slab.
func (c *HeaderCodec) room(m *spec.Message, slab []byte) []byte {
	if c.spare {
		return m.Spare(c.strBytes)
	}
	return slab
}

// extract is the one extraction routine: it stores the header at the
// head of hdr into m and marks it valid. The bytes of its string fields
// are copied to room, c.strBytes long and written nowhere else, which
// the message takes; an aligned integer field is one big-endian load.
func (c *HeaderCodec) extract(hdr []byte, m *spec.Message, room []byte) {
	hdr = hdr[:c.size]
	for i := range c.strs {
		x := &c.strs[i]
		copyStr(room[x.str:x.str+x.n], hdr[x.off:x.off+x.n])
	}
	fields, base := m.Fill(c.bits, room)
	for i := range c.strs {
		x := &c.strs[i]
		fields[x.idx] = spec.StrWord(base+x.str, trimmed(room[x.str:x.str+x.n]))
	}
	for i := range c.ints {
		x := &c.ints[i]
		var v uint64
		switch b := hdr[x.off:]; x.load {
		case 1:
			v = uint64(b[0])
		case 2:
			v = uint64(binary.BigEndian.Uint16(b))
		case 4:
			v = uint64(binary.BigEndian.Uint32(b))
		case 8:
			v = binary.BigEndian.Uint64(b)
		default:
			v = x.Uint(hdr)
		}
		fields[x.idx] = v
	}
}

// copyStr copies a string field's bytes from src to dst, which are the
// same length, a word at a time: a field is a few bytes, and a word load
// and store beat a call to memmove.
func copyStr(dst, src []byte) {
	for len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
	for i := range src {
		dst[i] = src[i]
	}
}

// trimmed returns the length of b without its right padding, StrVal's
// trim without building the string, a word at a time: b&^0x20 is zero
// exactly for the pad bytes ' ' and NUL.
func trimmed(b []byte) int {
	n := len(b)
	for ; n >= 8; n -= 8 {
		if w := binary.LittleEndian.Uint64(b[n-8:]) &^ 0x2020202020202020; w != 0 {
			return n - bits.LeadingZeros64(w)/8
		}
	}
	for n > 0 && b[n-1]&^0x20 == 0 {
		n--
	}
	return n
}

// Uint reads an integer field from hdr, which must hold the whole
// header, byte by byte: it gathers the bytes, drops the next field's bits
// from the last one and the previous field's by mask. It serves every
// width and offset (u4, u48, a u13 at bit 3); decoding loads a field that
// is a whole byte-aligned word in one instruction and calls it for the
// rest.
func (x *FieldCodec) Uint(hdr []byte) uint64 {
	b := hdr[x.off : x.off+x.n]
	var v uint64
	for _, c := range b[:x.n-1] {
		v = v<<8 | uint64(c)
	}
	return (v<<(8-x.shift) | uint64(b[x.n-1])>>x.shift) & x.mask
}

// Put writes v into the field of hdr, which must hold the whole header
// with the field's bits still zero: the value is OR-ed in, so fields
// already written around it keep their bits. Strings are right-padded
// with spaces. A value of the wrong kind, an integer outside the field's
// width or a string longer than the field is an error and hdr is left
// as it was.
func (x *FieldCodec) Put(hdr []byte, v spec.Value) error {
	f := x.f
	b := hdr[x.off : x.off+x.n]
	if f.Type == spec.StringField {
		if v.Kind != spec.StringField {
			return fmt.Errorf("packet: field %s wants string", f.QName())
		}
		if len(v.Str) > len(b) {
			return fmt.Errorf("packet: value %q overflows %d-byte field %s", v.Str, len(b), f.QName())
		}
		for i := copy(b, v.Str); i < len(b); i++ {
			b[i] = ' ' // right-pad with spaces, ITCH style
		}
		return nil
	}
	if v.Kind != spec.IntField {
		return fmt.Errorf("packet: field %s wants int", f.QName())
	}
	if f.Bits < 64 && (v.Int < 0 || v.Int > f.MaxValue()) {
		return fmt.Errorf("packet: value %d out of range for %s (u%d)", v.Int, f.QName(), f.Bits)
	}
	// The value fits the field, so OR-ing it in byte by byte from the
	// last byte up leaves the neighbouring fields' bits alone.
	u := uint64(v.Int)
	b[x.n-1] |= byte(u << x.shift)
	u >>= 8 - x.shift
	for i := x.n - 2; i >= 0; i-- {
		b[i] |= byte(u)
		u >>= 8
	}
	return nil
}

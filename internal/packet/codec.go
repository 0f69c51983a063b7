// Package packet provides wire-format encoding and decoding driven by
// message specs: the byte-level substrate under internal/formats.
//
// The codec packs header fields big-endian at bit granularity (P4
// semantics: fields occupy consecutive bits in declaration order), so
// specs with u4/u48/str8 fields all round-trip. A HeaderCodec compiles
// each field's access path once; decoding is then one load (or a
// byte-wise shift-and-mask for unaligned widths) per subscribable field,
// stored as that field's word of a message carved from a pooled chunk
// (spec.NewMessages, spec.Message.Fill). Following gopacket's
// DecodingLayerParser, nothing is allocated per field, per message or
// per frame: the messages, and the one immutable copy of the bytes a
// header's subscribable string fields span, are carved from append-only
// chunks that are refilled every few dozen frames and never handed out
// twice, so a decoded message is the caller's to keep. A kept message
// keeps its chunks alive. Encoding runs the same access paths the other
// way: an encoder resolves each field's FieldCodec once and writes a
// frame into one zeroed buffer with one Put per field, so a frame costs
// one allocation whatever its field or message count.
package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"camus/internal/spec"
)

// HeaderCodec encodes and decodes one fixed-width header of a spec.
type HeaderCodec struct {
	Spec   *spec.Spec
	Header *spec.Header

	size     int
	fields   []FieldCodec // every field, declaration order
	sub      []FieldCodec // the subscribable ones: what Decode extracts
	bits     []uint64     // Spec.HeaderBits of the header: what Decode marks
	strBytes int          // bytes the subscribable string fields span
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
			}
			c.sub = append(c.sub, x)
		}
		c.fields = append(c.fields, x)
	}
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

// Decode extracts the header from data, writing subscribable fields into
// m (and marking the header valid), and returns the remaining bytes.
func (c *HeaderCodec) Decode(data []byte, m *spec.Message) ([]byte, error) {
	return c.DecodeEach(data, []*spec.Message{m})
}

// DecodeEach extracts len(msgs) back-to-back instances of the header,
// the i-th into msgs[i], and returns the remaining bytes. The batch is
// bounds-checked once. Every message must be of the codec's spec: the
// field indices and the bits marked are that spec's. String fields point
// into an immutable copy of the bytes they span, carved from a pooled
// string chunk and appended to whatever strings the message already
// holds, never into data: the caller may reuse its buffer.
func (c *HeaderCodec) DecodeEach(data []byte, msgs []*spec.Message) ([]byte, error) {
	total := len(msgs) * c.size
	if len(data) < total {
		return nil, fmt.Errorf("packet: %d x %s needs %d bytes, have %d", len(msgs), c.Header.Name, total, len(data))
	}
	for _, m := range msgs {
		if m.Spec() != c.Spec {
			return nil, fmt.Errorf("packet: %s of spec %s decoded into a message of spec %s", c.Header.Name, c.Spec.Name, m.Spec().Name)
		}
	}
	var strs string
	if c.strBytes > 0 {
		strs = c.copyStrs(data, len(msgs))
	}
	for i, m := range msgs {
		hdr := data[i*c.size : (i+1)*c.size]
		own := strs[i*c.strBytes : (i+1)*c.strBytes]
		fields, base := m.Fill(c.bits, own)
		for j := range c.sub {
			x := &c.sub[j]
			if x.str >= 0 {
				// StrVal trims the padding by re-slicing; nothing is copied.
				fields[x.idx] = spec.StrWord(base+x.str, len(spec.StrVal(own[x.str:x.str+x.n]).Str))
			} else {
				fields[x.idx] = x.Uint(hdr)
			}
		}
	}
	return data[total:], nil
}

// strChunk is the size of the chunks decoded string bytes are copied to.
const strChunk = 4096

// strPool hands each P the builder it is filling: its current string
// chunk.
var strPool sync.Pool

// copyStrs copies the subscribable string bytes of the n headers at the
// head of data to the end of the current string chunk and returns them
// as one string. A chunk is only ever appended to, so what it returned
// earlier never changes; one too full for the copy is left to the
// collector, and the builder starts a fresh one.
func (c *HeaderCodec) copyStrs(data []byte, n int) string {
	need := n * c.strBytes
	b, _ := strPool.Get().(*strings.Builder)
	if b == nil {
		b = new(strings.Builder)
	}
	if b.Cap()-b.Len() < need {
		b.Reset()
		b.Grow(max(need, strChunk))
	}
	start := b.Len()
	for i := range n {
		hdr := data[i*c.size:]
		for j := range c.sub {
			if x := &c.sub[j]; x.str >= 0 {
				b.Write(hdr[x.off : x.off+x.n])
			}
		}
	}
	strs := b.String()[start:]
	strPool.Put(b)
	return strs
}

// Uint reads an integer field from hdr, which must hold the whole header.
func (x *FieldCodec) Uint(hdr []byte) uint64 {
	b := hdr[x.off : x.off+x.n]
	switch x.load {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		return binary.BigEndian.Uint64(b)
	}
	// Unaligned or odd-width (u4, u48): gather the bytes, drop the next
	// field's bits from the last one and the previous field's by mask.
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

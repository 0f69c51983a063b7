package packet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"camus/internal/spec"
)

// bitSpec mixes the widths and offsets the access paths special-case: a
// u4, a u13 at bit 3, a u48, a whole aligned u64, a u64 straddling nine
// bytes and a str6.
var bitSpec = spec.MustParse("bits", `
header mixed {
    a : u4;
    b : u12;
    c : u48;
    d : u3;
    e : u13;
    s : str6 @field;
    f : u64 @field;
    g : u4;
    w : u64 @field;
    h : u4;
}
`)

// encode writes the named values into a zeroed header through Put.
func encode(c *HeaderCodec, values map[string]spec.Value) ([]byte, error) {
	buf := make([]byte, c.Size())
	for name, v := range values {
		if err := c.MustField(name).Put(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readAll reads every field of hdr back by name: integers through Uint,
// strings as the bytes they span, trimmed as a Value trims them.
func readAll(c *HeaderCodec, hdr []byte) map[string]spec.Value {
	out := make(map[string]spec.Value, len(c.Header.Fields))
	for _, f := range c.Header.Fields {
		if f.Type == spec.StringField {
			out[f.Name] = spec.StrVal(string(hdr[f.Offset/8 : f.Offset/8+f.Bytes()]))
		} else {
			out[f.Name] = spec.IntVal(int64(c.MustField(f.Name).Uint(hdr)))
		}
	}
	return out
}

func TestBitPackingRoundTrip(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	if c.Size() != (4+12+48+3+13+48+64+4+64+4)/8 {
		t.Fatalf("size = %d", c.Size())
	}
	in := map[string]spec.Value{
		"a": spec.IntVal(0xF), "b": spec.IntVal(0xABC), "c": spec.IntVal(1<<47 | 12345), "d": spec.IntVal(5),
		"e": spec.IntVal(8191), "s": spec.StrVal("hello"), "f": spec.IntVal(1<<62 | 99),
		"g": spec.IntVal(0xA), "w": spec.IntVal(-1 << 60), "h": spec.IntVal(0x5),
	}
	buf, err := encode(c, in)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	out := readAll(c, buf)
	for name, want := range in {
		if got := out[name]; !got.Equal(want) {
			t.Errorf("%s = %v (%#x), want %v", name, got, got.Int, want)
		}
	}
}

func TestBitPackingProperty(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	f := func(a, d uint8, b, e uint16, cv, fv, wv uint64) bool {
		in := map[string]spec.Value{
			"a": spec.IntVal(int64(a % 16)), "b": spec.IntVal(int64(b % 4096)), "c": spec.IntVal(int64(cv % (1 << 48))),
			"d": spec.IntVal(int64(d % 8)), "e": spec.IntVal(int64(e % 8192)), "f": spec.IntVal(int64(fv >> 1)),
			"w": spec.IntVal(int64(wv)),
		}
		buf, err := encode(c, in)
		if err != nil {
			return false
		}
		out := readAll(c, buf)
		for name, want := range in {
			if !out[name].Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeIntoMessage(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	buf, err := encode(c, map[string]spec.Value{"s": spec.StrVal("abc"), "f": spec.IntVal(42)})
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(bitSpec)
	if m.HeaderPresent("mixed") {
		t.Error("header present before decode")
	}
	rest, err := c.Decode(buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d", len(rest))
	}
	if !m.HeaderPresent("mixed") {
		t.Error("header not marked present")
	}
	if v, ok := m.GetRef("f"); !ok || v.Int != 42 {
		t.Errorf("f = %v %v", v, ok)
	}
	if v, ok := m.GetRef("s"); !ok || v.Str != "abc" {
		t.Errorf("s = %v %v", v, ok)
	}
	// Non-subscribable fields must not land in the message.
	if _, ok := m.GetRef("a"); ok {
		t.Error("non-subscribable field set in message")
	}
}

// TestEncodeErrors: Put refuses each kind of value that does not fit,
// says which in the same words as always, and leaves the header alone.
func TestEncodeErrors(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	for _, tc := range []struct {
		field string
		v     spec.Value
		want  string
	}{
		{"a", spec.IntVal(16), "packet: value 16 out of range for mixed.a (u4)"},
		{"e", spec.IntVal(-1), "packet: value -1 out of range for mixed.e (u13)"},
		{"s", spec.StrVal("toolongstring"), `packet: value "toolongstring" overflows 6-byte field mixed.s`},
		{"a", spec.StrVal("x"), "packet: field mixed.a wants int"},
		{"s", spec.IntVal(1), "packet: field mixed.s wants string"},
	} {
		buf := make([]byte, c.Size())
		err := c.MustField(tc.field).Put(buf, tc.v)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Put(%s, %v) = %v, want %q", tc.field, tc.v, err, tc.want)
		}
		if string(buf) != string(make([]byte, c.Size())) {
			t.Errorf("Put(%s, %v) refused but wrote % x", tc.field, tc.v, buf)
		}
	}
	if _, err := NewHeaderCodec(bitSpec, "nope"); err == nil {
		t.Error("codec for missing header created")
	}
	if _, err := c.Field("zz"); err == nil {
		t.Error("access path for a missing field returned")
	}
	m := spec.NewMessage(bitSpec)
	if _, err := c.Decode([]byte{1, 2}, m); err == nil {
		t.Error("short buffer decoded")
	}
}

// TestStringPadding: strings are right-padded with spaces on the wire and
// trimmed on decode.
func TestStringPadding(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	buf, err := encode(c, map[string]spec.Value{"s": spec.StrVal("ab")})
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := bitSpec.Field("s"); string(buf[s.Offset/8:][:s.Bytes()]) != "ab    " {
		t.Errorf("s on the wire = %q", buf[s.Offset/8:][:s.Bytes()])
	}
	m := spec.NewMessage(bitSpec)
	if _, err := c.Decode(buf, m); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.GetRef("s"); v.Str != "ab" {
		t.Errorf("s = %q", v.Str)
	}
}

// refBits is the bit-at-a-time reference extractor the compiled access
// paths are checked against: `bits` bits at bit offset off, big-endian,
// keeping the low 64.
func refBits(data []byte, off, bits int) uint64 {
	var v uint64
	for i := 0; i < bits; i++ {
		pos := off + i
		v = v<<1 | uint64(data[pos/8]>>uint(7-pos%8)&1)
	}
	return v
}

// randomHeader draws a header mixing every width the formats use plus
// odd ones, at whatever bit offsets the draw produces; strings land only
// on byte boundaries (the codec refuses others) and a filler closes the
// header on one.
func randomHeader(r *rand.Rand, name string) *spec.Header {
	widths := []int{3, 4, 8, 13, 16, 20, 32, 48, 57, 64}
	h := &spec.Header{Name: name}
	off := 0
	for i, n := 0, 1+r.Intn(10); i < n; i++ {
		f := &spec.Field{Name: fmt.Sprintf("f%d", i), Subscribable: r.Intn(4) != 0}
		if off%8 == 0 && r.Intn(4) == 0 {
			f.Type, f.Bits = spec.StringField, 8*(1+r.Intn(12))
		} else {
			f.Type, f.Bits = spec.IntField, widths[r.Intn(len(widths))]
		}
		off += f.Bits
		h.Fields = append(h.Fields, f)
	}
	if off%8 != 0 {
		h.Fields = append(h.Fields, &spec.Field{Name: "fill", Type: spec.IntField, Bits: 8 - off%8})
	}
	return h
}

// TestDecodeMatchesBitReference: over random specs, what Put writes is
// what refBits reads, and Decode and Uint return the values that went in.
func TestDecodeMatchesBitReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for iter := 0; iter < 300; iter++ {
		sp, err := spec.New("rnd", randomHeader(r, "a"), randomHeader(r, "b"))
		if err != nil {
			t.Fatal(err)
		}
		m := spec.NewMessage(sp)
		for _, h := range sp.Headers {
			c := MustHeaderCodec(sp, h.Name)
			in := make(map[string]spec.Value)
			for _, f := range h.Fields {
				if f.Type == spec.StringField {
					b := make([]byte, r.Intn(f.Bytes()+1))
					for i := range b {
						b[i] = letters[r.Intn(len(letters))]
					}
					in[f.Name] = spec.StrVal(string(b))
				} else {
					in[f.Name] = spec.IntVal(int64(r.Uint64() & uint64(f.MaxValue())))
				}
			}
			// A non-zero prefix: offsets must be relative to the header.
			buf := append([]byte{0xA5}, make([]byte, c.Size())...)[1:]
			for _, f := range h.Fields {
				if err := c.MustField(f.Name).Put(buf, in[f.Name]); err != nil {
					t.Fatalf("iter %d: Put %s: %v", iter, f.QName(), err)
				}
			}
			all := readAll(c, buf)
			if _, err := c.Decode(buf, m); err != nil {
				t.Fatal(err)
			}
			for _, f := range h.Fields {
				want := in[f.Name]
				ref := spec.IntVal(int64(refBits(buf, f.Offset, f.Bits)))
				if f.Type == spec.StringField {
					ref = spec.StrVal(string(buf[f.Offset/8 : f.Offset/8+f.Bytes()]))
				}
				if !ref.Equal(want) || !all[f.Name].Equal(want) {
					t.Fatalf("iter %d %s (u%d @%d): in %v, reference %v, read back %v",
						iter, f.QName(), f.Bits, f.Offset, want, ref, all[f.Name])
				}
				got, ok := m.GetRef(f.QName())
				if ok != f.Subscribable || (ok && !got.Equal(want)) {
					t.Fatalf("iter %d %s (u%d @%d): Decode = %v %v, want %v",
						iter, f.QName(), f.Bits, f.Offset, got, ok, want)
				}
			}
		}
	}
}

// TestWideIntKeepsLow64: an integer field wider than a Value carries its
// low 64 bits, wherever it sits.
func TestWideIntKeepsLow64(t *testing.T) {
	sp := spec.MustParse("wide", "header h { a : u4; w : u100 @field; b : u8; x : u128 @field; }")
	c := MustHeaderCodec(sp, "h")
	buf, err := encode(c, map[string]spec.Value{
		"a": spec.IntVal(9), "w": spec.IntVal(1<<62 | 7), "b": spec.IntVal(0xEE), "x": spec.IntVal(12345)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range c.Header.Fields {
		if got, want := c.MustField(f.Name).Uint(buf), refBits(buf, f.Offset, f.Bits); got != want {
			t.Errorf("%s = %#x, reference %#x", f.Name, got, want)
		}
	}
	if v := c.MustField("w").Uint(buf); v != 1<<62|7 {
		t.Errorf("w = %#x", v)
	}
}

// TestDecodeNew: back-to-back headers land in consecutive fresh
// messages, the batch is bounds-checked as a whole, and no message keeps
// a reference into the caller's buffer. DecodeOne is the one-header case.
func TestDecodeNew(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	var buf []byte
	for i := 0; i < 3; i++ {
		hdr, err := encode(c, map[string]spec.Value{"s": spec.StrVal(fmt.Sprintf("row%d", i)), "f": spec.IntVal(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, hdr...)
	}
	if _, _, err := c.DecodeNew(buf[:len(buf)-1], 3); err == nil {
		t.Error("batch one byte short decoded")
	}
	if _, _, err := c.DecodeOne(buf[:c.Size()-1]); err == nil {
		t.Error("header one byte short decoded")
	}
	buf = append(buf, 0xFF)
	msgs, rest, err := c.DecodeNew(buf, 3)
	if err != nil || len(rest) != 1 || len(msgs) != 3 {
		t.Fatalf("DecodeNew: %d messages, rest %d, err %v", len(msgs), len(rest), err)
	}
	one, rest, err := c.DecodeOne(buf[c.Size():])
	if err != nil || len(rest) != 1+c.Size() {
		t.Fatalf("DecodeOne: rest %d, err %v", len(rest), err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	for i, m := range append(msgs, one) {
		s, _ := m.GetRef("s")
		f, _ := m.GetRef("f")
		if want := []int{0, 1, 2, 1}[i]; s.Str != fmt.Sprintf("row%d", want) || f.Int != int64(want) || !m.HeaderPresent("mixed") {
			t.Errorf("message %d = %v", i, m)
		}
	}
}

func TestMisalignedStringRejected(t *testing.T) {
	sp := spec.MustParse("mis", "header h { a : u4; s : str2 @field; b : u4; }")
	if _, err := NewHeaderCodec(sp, "h"); err == nil {
		t.Error("codec built for a string field off a byte boundary")
	}
}

// TestMustFormsReturnErrors is this file's panic audit: its two panic
// sites are the Must wrappers MustHeaderCodec and MustField, and an
// unknown header, a string field off a byte boundary or an unknown field
// is an error from NewHeaderCodec and Field.
func TestMustFormsReturnErrors(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	mis := spec.MustParse("mis", "header h { a : u4; s : str2 @field; b : u4; }")
	for _, tc := range []struct {
		name string
		err  func() error
		must func()
	}{
		{"NewHeaderCodec: unknown header",
			func() error { _, err := NewHeaderCodec(bitSpec, "bogus"); return err },
			func() { MustHeaderCodec(bitSpec, "bogus") }},
		{"NewHeaderCodec: misaligned string",
			func() error { _, err := NewHeaderCodec(mis, "h"); return err },
			func() { MustHeaderCodec(mis, "h") }},
		{"Field: unknown field",
			func() error { _, err := c.Field("bogus"); return err },
			func() { c.MustField("bogus") }},
	} {
		if err := tc.err(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the Must form did not panic", tc.name)
				}
			}()
			tc.must()
		}()
	}
}

// TestDecodeIntoForeignSpecRefused: a codec's field indices and header
// bits are its own spec's, so a message of another spec is an error, not
// an out-of-range store or wrongly marked fields.
func TestDecodeIntoForeignSpecRefused(t *testing.T) {
	c := MustHeaderCodec(bitSpec, "mixed")
	buf, err := encode(c, map[string]spec.Value{"s": spec.StrVal("abc"), "f": spec.IntVal(42)})
	if err != nil {
		t.Fatal(err)
	}
	other := spec.MustParse("other", "header mixed { x : u8 @field; }")
	m := spec.NewMessage(other)
	if _, err := c.Decode(buf, m); err == nil {
		t.Error("decoded into a message of another spec")
	}
	if m.String() != "{}" || m.HeaderMask() != 0 {
		t.Errorf("refused decode left %v mask %#x", m, m.HeaderMask())
	}
}

// msgModel is the reference a Message is checked against: the values and
// the valid headers, keyed by index.
type msgModel struct {
	vals map[int]spec.Value
	hdrs map[int]bool
}

func newMsgModel() *msgModel {
	return &msgModel{vals: map[int]spec.Value{}, hdrs: map[int]bool{}}
}

func (r *msgModel) clone() *msgModel {
	c := newMsgModel()
	for k, v := range r.vals {
		c.vals[k] = v
	}
	for k := range r.hdrs {
		c.hdrs[k] = true
	}
	return c
}

func (r *msgModel) check(t *testing.T, what string, m *spec.Message) {
	t.Helper()
	sp := m.Spec()
	for i, f := range sp.SubscribableFields() {
		want, present := r.vals[i]
		got, ok := m.Get(i)
		if ok != present || (ok && !got.Equal(want)) {
			t.Fatalf("%s: %s = %v %v, model %v %v", what, f.QName(), got, ok, want, present)
		}
		if n, ok := m.Int(i); f.Type == spec.IntField && (ok != present || ok && n != want.Int) {
			t.Fatalf("%s: Int(%s) = %d %v, model %v %v", what, f.QName(), n, ok, want, present)
		}
	}
	if err := m.CheckHeaders(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var mask uint64
	for i, h := range sp.Headers {
		if m.HeaderPresent(h.Name) != r.hdrs[i] || m.HeaderValid(i) != r.hdrs[i] {
			t.Fatalf("%s: header %s valid = %v, model %v", what, h.Name, m.HeaderValid(i), r.hdrs[i])
		}
		if r.hdrs[i] && i < 64 {
			mask |= 1 << uint(i)
		}
	}
	if m.HeaderMask() != mask {
		t.Fatalf("%s: HeaderMask = %#x, model %#x", what, m.HeaderMask(), mask)
	}
}

// stringHeaders builds n two-field headers, an integer and a string each.
func stringHeaders(prefix string, n int) []*spec.Header {
	var hs []*spec.Header
	for i := 0; i < n; i++ {
		hs = append(hs, &spec.Header{Name: fmt.Sprintf("%s%d", prefix, i), Fields: []*spec.Field{
			{Name: "n", Type: spec.IntField, Bits: 16, Subscribable: true},
			{Name: "skip", Type: spec.IntField, Bits: 8},
			{Name: "s", Type: spec.StringField, Bits: 8 * (3 + i%4), Subscribable: true},
		}})
	}
	return hs
}

// TestMessageMatchesModel drives random SetIndex / Reset / Clone /
// MarkHeader / Decode sequences over every message layout — in the
// struct, a merged spec still in the struct, more fields than the struct
// holds, more bits than one word — on messages built singly, as a slab
// and by Clone, and compares every message with its model after every
// step. Decoded frames are overwritten straight after the decode.
func TestMessageMatchesModel(t *testing.T) {
	small := spec.MustNew("small", stringHeaders("a", 2)...)
	other := spec.MustNew("other", stringHeaders("b", 1)...)
	merged, err := spec.Merge("merged", small, other)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*spec.Spec{small, merged, spec.MustNew("fields", stringHeaders("c", 6)...), spec.MustNew("bits", stringHeaders("d", 40)...)}
	r := rand.New(rand.NewSource(24))
	for _, sp := range specs {
		fields := sp.SubscribableFields()
		codecs := make([]*HeaderCodec, len(sp.Headers))
		for i, h := range sp.Headers {
			codecs[i] = MustHeaderCodec(sp, h.Name)
		}
		randVal := func(f *spec.Field) spec.Value {
			if f.Type == spec.StringField {
				return spec.StrVal("xyzwvut"[:r.Intn(f.Bytes()+1)])
			}
			return spec.IntVal(int64(r.Uint64() & uint64(f.MaxValue())))
		}
		msgs := append(spec.NewMessages(sp, 3), spec.NewMessage(sp))
		models := make([]*msgModel, len(msgs))
		for i := range models {
			models[i] = newMsgModel()
		}
		for step := 0; step < 2000; step++ {
			i := r.Intn(len(msgs))
			m, ref := msgs[i], models[i]
			var op string
			switch k := r.Intn(10); {
			case k < 4:
				idx := r.Intn(len(fields))
				v := randVal(fields[idx])
				op = fmt.Sprintf("SetIndex(%d, %v)", idx, v)
				m.SetIndex(idx, v)
				ref.vals[idx] = v
				ref.hdrs[sp.HeaderIndex(fields[idx].Header)] = true
			case k < 5:
				op = "Reset"
				m.Reset()
				*ref = *newMsgModel()
			case k < 6:
				j := r.Intn(len(msgs))
				op = fmt.Sprintf("Clone into %d", j)
				msgs[j], models[j] = m.Clone(), ref.clone()
			case k < 7:
				hi := r.Intn(len(sp.Headers))
				op = "MarkHeader " + sp.Headers[hi].Name
				m.MarkHeader(sp.Headers[hi].Name)
				ref.hdrs[hi] = true
			default:
				hi := r.Intn(len(sp.Headers))
				op = "Decode " + sp.Headers[hi].Name
				in := make(map[string]spec.Value)
				for _, f := range sp.Headers[hi].Fields {
					in[f.Name] = randVal(f)
					if idx, ok := sp.SubscribableIndex(f); ok {
						ref.vals[idx] = in[f.Name]
					}
				}
				ref.hdrs[hi] = true
				frame, err := encode(codecs[hi], in)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := codecs[hi].Decode(frame, m); err != nil {
					t.Fatal(err)
				}
				for b := range frame {
					frame[b] = 0xFF
				}
			}
			for j := range msgs {
				models[j].check(t, fmt.Sprintf("%s step %d (%s on %d) msg %d", sp.Name, step, op, i, j), msgs[j])
			}
		}
	}
}

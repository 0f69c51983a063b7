package packet

import (
	"strings"
	"testing"

	"camus/internal/spec"
)

// FuzzHeaderCodec writes arbitrary values through Put into every field of
// bitSpec and checks each field's bits against refBits — the value, right
// where it belongs, and no neighbour's bit disturbed — then reads every
// field back through Decode and Uint. An integer too wide for its field
// and a string longer than its field are refused.
func FuzzHeaderCodec(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), "ABC")
	f.Add(uint64(15), uint64(4095), uint64(1)<<47, uint64(7), uint64(8191), ^uint64(0), ^uint64(0), "GOOGL ")
	f.Add(uint64(16), uint64(0), uint64(1)<<48, uint64(0), uint64(1)<<13, uint64(0), uint64(1)<<63, "toolong")
	c := MustHeaderCodec(bitSpec, "mixed")
	f.Fuzz(func(t *testing.T, a, b, cv, d, e, fv, wv uint64, s string) {
		in := map[string]spec.Value{}
		for name, v := range map[string]uint64{"a": a, "b": b, "c": cv, "d": d, "e": e, "f": fv, "g": a ^ b, "w": wv, "h": d ^ e} {
			fd, _ := bitSpec.Field(name)
			if fd.Bits < 64 && v > uint64(fd.MaxValue()) {
				if err := c.MustField(name).Put(make([]byte, c.Size()), spec.IntVal(int64(v))); err == nil {
					t.Fatalf("%s: %d put into u%d", name, v, fd.Bits)
				}
				v &= uint64(fd.MaxValue())
			}
			in[name] = spec.IntVal(int64(v))
		}
		sv := spec.StrVal(s)
		if len(sv.Str) > 6 {
			if err := c.MustField("s").Put(make([]byte, c.Size()), sv); err == nil {
				t.Fatalf("%q put into str6", sv.Str)
			}
			sv = spec.StrVal(sv.Str[:6])
		}
		in["s"] = sv
		buf, err := encode(c, in)
		if err != nil {
			t.Fatalf("Put(%v): %v", in, err)
		}
		for _, fd := range c.Header.Fields {
			want := in[fd.Name]
			if fd.Type == spec.StringField {
				wire := string(buf[fd.Offset/8:][:fd.Bytes()])
				if pad := want.Str + strings.Repeat(" ", fd.Bytes()-len(want.Str)); wire != pad {
					t.Fatalf("%s on the wire = %q, want %q", fd.Name, wire, pad)
				}
			} else if got := refBits(buf, fd.Offset, fd.Bits); got != uint64(want.Int) {
				t.Fatalf("%s (u%d @%d): reference reads %#x, put %#x", fd.Name, fd.Bits, fd.Offset, got, want.Int)
			}
		}
		m := spec.NewMessage(bitSpec)
		if _, err := c.Decode(buf, m); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckHeaders(); err != nil {
			t.Fatal(err)
		}
		back := readAll(c, buf)
		for _, fd := range c.Header.Fields {
			want := in[fd.Name]
			if !back[fd.Name].Equal(want) {
				t.Fatalf("%s read back %v, put %v", fd.Name, back[fd.Name], want)
			}
			if got, ok := m.GetRef(fd.Name); ok != fd.Subscribable || (ok && !got.Equal(want)) {
				t.Fatalf("%s decoded %v %v, put %v", fd.Name, got, ok, want)
			}
		}
	})
}

// FuzzDecodeBytes feeds arbitrary bytes to DecodeNew, DecodeOne and Uint:
// short input is an error, anything else decodes to what the
// bit-at-a-time reference reads, and nothing panics or reads past the
// slice.
func FuzzDecodeBytes(f *testing.F) {
	c := MustHeaderCodec(bitSpec, "mixed")
	good, _ := encode(c, map[string]spec.Value{"a": spec.IntVal(3), "c": spec.IntVal(77), "s": spec.StrVal("fuzz"), "f": spec.IntVal(9), "w": spec.IntVal(-2)})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(good[:c.Size()-1])
	f.Add(append(append([]byte{}, good...), good...))
	f.Add(append(append([]byte{}, good...), 0xDE, 0xAD))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / c.Size()
		if _, _, err := c.DecodeNew(data, n+1); err == nil {
			t.Fatalf("%d bytes decoded as %d headers", len(data), n+1)
		}
		msgs, rest, err := c.DecodeNew(data, n)
		if err != nil || len(rest) != len(data)-n*c.Size() {
			t.Fatalf("DecodeNew(%d headers): rest %d, err %v", n, len(rest), err)
		}
		if one, _, err := c.DecodeOne(data); (err == nil) != (n > 0) || (n > 0 && one.String() != msgs[0].String()) {
			t.Fatalf("DecodeOne: %v, err %v; DecodeNew's first: %v", one, err, msgs)
		}
		str, _ := bitSpec.Field("s")
		for i, m := range msgs {
			hdr := data[i*c.Size():]
			for _, fd := range c.Header.Fields {
				if fd.Type != spec.IntField {
					continue
				}
				ref := refBits(hdr, fd.Offset, fd.Bits)
				if got := c.MustField(fd.Name).Uint(hdr); got != ref {
					t.Fatalf("header %d: %s = %#x, reference %#x", i, fd.Name, got, ref)
				}
				if v, ok := m.GetRef(fd.Name); ok != fd.Subscribable || (ok && uint64(v.Int) != ref) {
					t.Fatalf("header %d: decoded %s = %v %v", i, fd.Name, v, ok)
				}
			}
			if v, ok := m.GetRef("s"); !ok || !v.Equal(spec.StrVal(string(hdr[str.Offset/8:][:str.Bytes()]))) {
				t.Fatalf("header %d: s = %v %v", i, v, ok)
			}
		}
	})
}

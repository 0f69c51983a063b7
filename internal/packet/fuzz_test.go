package packet

import (
	"testing"

	"camus/internal/spec"
)

// FuzzHeaderCodec round-trips arbitrary integer values through the
// bit-packing codec.
func FuzzHeaderCodec(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2))
	f.Add(uint64(1)<<47, uint64(4095), uint64(15))
	sp := spec.MustParse("fz", `
header h {
    a : u4;
    b : u12;
    c : u48;
}
`)
	c := MustHeaderCodec(sp, "h")
	f.Fuzz(func(t *testing.T, a, b, cc uint64) {
		in := V("a", int64(a%16), "b", int64(b%4096), "c", int64(cc%(1<<48)))
		buf, err := c.Append(nil, in)
		if err != nil {
			t.Fatalf("Append(%v): %v", in, err)
		}
		out, _, err := c.DecodeAll(buf)
		if err != nil {
			t.Fatalf("DecodeAll: %v", err)
		}
		for k, v := range in {
			if out[k].Int != v.Int {
				t.Fatalf("%s: %d != %d", k, out[k].Int, v.Int)
			}
		}
	})
}

// FuzzDecodeBytes feeds arbitrary bytes to Decode, DecodeEach and
// DecodeAll: short input is an error, anything else decodes to what the
// bit-at-a-time reference reads, and nothing panics or reads past the
// slice.
func FuzzDecodeBytes(f *testing.F) {
	c := MustHeaderCodec(bitSpec, "mixed")
	good, _ := c.Append(nil, V("a", 3, "c", 77, "s", "fuzz", "f", 9))
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(good[:c.Size()-1])
	f.Add(append(append([]byte{}, good...), good...))
	f.Add(append(append([]byte{}, good...), 0xDE, 0xAD))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / c.Size()
		if _, err := c.DecodeEach(data, spec.NewMessages(bitSpec, n+1)); err == nil {
			t.Fatalf("%d bytes decoded as %d headers", len(data), n+1)
		}
		msgs := spec.NewMessages(bitSpec, n)
		rest, err := c.DecodeEach(data, msgs)
		if err != nil || len(rest) != len(data)-n*c.Size() {
			t.Fatalf("DecodeEach(%d headers): rest %d, err %v", n, len(rest), err)
		}
		fld, _ := bitSpec.Field("f")
		str, _ := bitSpec.Field("s")
		for i, m := range msgs {
			hdr := data[i*c.Size():]
			if v, ok := m.GetRef("f"); !ok || uint64(v.Int) != refBits(hdr, fld.Offset, fld.Bits) {
				t.Fatalf("header %d: f = %v %v", i, v, ok)
			}
			if v, ok := m.GetRef("s"); !ok || !v.Equal(spec.StrVal(string(hdr[str.Offset/8:][:str.Bytes()]))) {
				t.Fatalf("header %d: s = %v %v", i, v, ok)
			}
			all, _, err := c.DecodeAll(hdr)
			if err != nil {
				t.Fatal(err)
			}
			for _, fd := range c.Header.Fields {
				if fd.Type == spec.IntField && uint64(all[fd.Name].Int) != refBits(hdr, fd.Offset, fd.Bits) {
					t.Fatalf("header %d: %s = %v", i, fd.Name, all[fd.Name])
				}
			}
		}
	})
}

package spec

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

const itchSrc = `
# ITCH message format (paper Fig. 4)
header moldudp {
    session : str10;
    seq : u64;
    count : u16;
}
header itch_order {
    msg_type : u8;
    stock_locate : u16;
    tracking : u16;
    timestamp : u48;
    order_ref : u64;
    buy_sell : u8;
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
    @counter(my_counter, 100us)
}
`

func parseITCH(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse("itch", itchSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseHeaders(t *testing.T) {
	s := parseITCH(t)
	if len(s.Headers) != 2 {
		t.Fatalf("got %d headers, want 2", len(s.Headers))
	}
	h, ok := s.Header("itch_order")
	if !ok {
		t.Fatal("missing itch_order header")
	}
	if got := len(h.Fields); got != 9 {
		t.Fatalf("itch_order has %d fields, want 9", got)
	}
	if got := h.Bytes(); got != 1+2+2+6+8+1+4+4+8 {
		t.Fatalf("itch_order width %d bytes, want 36", got)
	}
}

func TestSubscribableFieldOrder(t *testing.T) {
	s := parseITCH(t)
	subs := s.SubscribableFields()
	want := []string{"itch_order.shares", "itch_order.price", "itch_order.stock"}
	if len(subs) != len(want) {
		t.Fatalf("got %d subscribable fields, want %d", len(subs), len(want))
	}
	for i, f := range subs {
		if f.QName() != want[i] {
			t.Errorf("field %d = %s, want %s", i, f.QName(), want[i])
		}
		if idx, ok := s.SubscribableIndex(f); !ok || idx != i {
			t.Errorf("SubscribableIndex(%s) = %d,%v want %d,true", f.QName(), idx, ok, i)
		}
	}
}

func TestFieldResolution(t *testing.T) {
	s := parseITCH(t)
	if f, ok := s.Field("price"); !ok || f.QName() != "itch_order.price" {
		t.Errorf("unqualified price: %v %v", f, ok)
	}
	if f, ok := s.Field("itch_order.stock"); !ok || f.Type != StringField {
		t.Errorf("qualified stock: %v %v", f, ok)
	}
	if _, ok := s.Field("nonexistent"); ok {
		t.Error("resolved nonexistent field")
	}
}

func TestMatchHints(t *testing.T) {
	s := parseITCH(t)
	price, _ := s.Field("price")
	if price.Hint != MatchRange {
		t.Errorf("price hint = %v, want range", price.Hint)
	}
	stock, _ := s.Field("stock")
	if stock.Hint != MatchExact {
		t.Errorf("stock hint = %v, want exact", stock.Hint)
	}
	locate, _ := s.Field("stock_locate")
	if locate.Subscribable {
		t.Error("stock_locate should not be subscribable")
	}
}

func TestStateVar(t *testing.T) {
	s := parseITCH(t)
	sv, ok := s.StateVar("my_counter")
	if !ok {
		t.Fatal("missing my_counter")
	}
	if sv.Window != 100*time.Microsecond {
		t.Errorf("window = %v, want 100µs", sv.Window)
	}
	if got := len(s.StateVars()); got != 1 {
		t.Errorf("StateVars len = %d, want 1", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no headers"},
		{"dup header", "header a { x : u8; }\nheader a { y : u8; }", "duplicate header"},
		{"dup field", "header a { x : u8; x : u16; }", "duplicate field"},
		{"bad type", "header a { x : float32; }", "unknown field type"},
		{"unaligned", "header a { x : u3; }", "not byte aligned"},
		{"unaligned str", "header a { x : u8; }", ""}, // control: ok
		{"bad annotation", "header a { x : u8 @magic; }", "unknown field annotation"},
		{"missing semi", "header a { x : u8 }", "expected"},
		{"bad counter", "header a { x : u8; @counter(c) }", "expected"},
	}
	for _, tc := range cases {
		_, err := Parse("t", tc.src)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMustFormsReturnErrors is this package's panic audit: its three
// panic sites are the Must wrappers MustParse, MustNew and MustSet, and
// the input that makes each wrapper panic — malformed spec text, a
// duplicate header or a misaligned string field, an unknown field or a
// value of the wrong kind — is an error from the form a caller with
// untrusted input uses.
func TestMustFormsReturnErrors(t *testing.T) {
	dup := func() []*Header {
		return []*Header{{Name: "a", Fields: []*Field{{Name: "x", Type: IntField, Bits: 8}}}, {Name: "a"}}
	}
	odd := func() []*Header {
		return []*Header{{Name: "a", Fields: []*Field{{Name: "s", Type: StringField, Bits: 12}, {Name: "p", Type: IntField, Bits: 4}}}}
	}
	m := NewMessage(parseITCH(t))
	for _, tc := range []struct {
		name string
		err  func() error
		must func()
	}{
		{"Parse: malformed text",
			func() error { _, err := Parse("bad", "header a { x : u8 }"); return err },
			func() { MustParse("bad", "header a { x : u8 }") }},
		{"New: duplicate header",
			func() error { _, err := New("bad", dup()...); return err },
			func() { MustNew("bad", dup()...) }},
		{"New: misaligned string field",
			func() error { _, err := New("bad", odd()...); return err },
			func() { MustNew("bad", odd()...) }},
		{"Set: unknown field",
			func() error { return m.Set("bogus", IntVal(1)) },
			func() { m.MustSet("bogus", IntVal(1)) }},
		{"Set: wrong kind",
			func() error { return m.Set("stock", IntVal(7)) },
			func() { m.MustSet("stock", IntVal(7)) }},
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
	if m.String() != "{}" {
		t.Errorf("refused sets wrote %v", m)
	}
}

func TestFieldMaxValue(t *testing.T) {
	cases := []struct {
		bits int
		want int64
	}{
		{8, 255}, {16, 65535}, {32, 1<<32 - 1}, {48, 1<<48 - 1}, {64, int64(^uint64(0) >> 1)},
	}
	for _, tc := range cases {
		f := &Field{Bits: tc.bits, Type: IntField}
		if got := f.MaxValue(); got != tc.want {
			t.Errorf("MaxValue(%d bits) = %d, want %d", tc.bits, got, tc.want)
		}
	}
}

func TestMessageSetGet(t *testing.T) {
	s := parseITCH(t)
	m := NewMessage(s)
	if _, ok := m.GetRef("price"); ok {
		t.Error("empty message has price")
	}
	m.MustSet("price", IntVal(52))
	m.MustSet("stock", StrVal("GOOGL   ")) // right-padded wire form
	if v, ok := m.GetRef("price"); !ok || v.Int != 52 {
		t.Errorf("price = %v %v", v, ok)
	}
	if v, ok := m.GetRef("stock"); !ok || v.Str != "GOOGL" {
		t.Errorf("stock = %v %v, want trimmed GOOGL", v, ok)
	}
	if err := m.Set("stock_locate", IntVal(1)); err == nil {
		t.Error("setting non-subscribable field should fail")
	}
	if err := m.Set("bogus", IntVal(1)); err == nil {
		t.Error("setting unknown field should fail")
	}
	// The kind is the field's, not the value's: a mismatch is refused and
	// leaves the field as it was.
	if err := m.Set("stock", IntVal(7)); err == nil {
		t.Error("setting an int on a string field should fail")
	}
	if err := m.Set("price", StrVal("52")); err == nil {
		t.Error("setting a string on an int field should fail")
	}
	if v, ok := m.GetRef("stock"); !ok || !v.Equal(StrVal("GOOGL")) {
		t.Errorf("stock after refused Set = %v %v", v, ok)
	}
	if v, ok := m.GetRef("price"); !ok || !v.Equal(IntVal(52)) {
		t.Errorf("price after refused Set = %v %v", v, ok)
	}
	clone := m.Clone()
	m.Reset()
	if _, ok := m.GetRef("price"); ok {
		t.Error("reset message still has price")
	}
	if v, ok := clone.GetRef("price"); !ok || v.Int != 52 {
		t.Error("clone lost price after original reset")
	}
}

func TestMergeSpecs(t *testing.T) {
	a := MustParse("a", "header ha { x : u8 @field; }")
	b := MustParse("b", "header hb { y : u8 @field; }")
	m, err := Merge("ab", a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(m.SubscribableFields()) != 2 {
		t.Fatalf("merged subscribable = %d, want 2", len(m.SubscribableFields()))
	}
	if _, err := Merge("aa", a, a); err == nil {
		t.Error("merging colliding headers should fail")
	}
}

func TestValueHelpers(t *testing.T) {
	if !IntVal(5).Equal(IntVal(5)) || IntVal(5).Equal(IntVal(6)) {
		t.Error("IntVal equality broken")
	}
	if !StrVal("GOOGL ").Equal(StrVal("GOOGL")) {
		t.Error("StrVal should trim padding")
	}
	if IntVal(5).Equal(StrVal("5")) {
		t.Error("cross-kind equality should be false")
	}
	if got := IntVal(7).String(); got != "7" {
		t.Errorf("IntVal.String = %q", got)
	}
	if got := StrVal("x").String(); got != `"x"` {
		t.Errorf("StrVal.String = %q", got)
	}
}

// wideSpec has more fields and more headers than one mask word holds,
// so its messages keep their masks out of line.
func wideSpec(t *testing.T) *Spec {
	t.Helper()
	var src strings.Builder
	for h := 0; h < 70; h++ {
		fmt.Fprintf(&src, "header h%d { a : u8 @field; b : u16 @field; }\n", h)
	}
	s, err := Parse("wide", src.String())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// kindVal returns a value of f's kind that carries n.
func kindVal(f *Field, n int) Value {
	if f.Type == StringField {
		return StrVal(fmt.Sprintf("s%d  ", n)) // right-padded, as on the wire
	}
	return IntVal(int64(n))
}

// TestMessageLayouts drives every Message operation over the layouts a
// spec can give it — in the struct, a merged spec still in the struct,
// too wide for it — built singly and as a slab. A message is one 64-byte
// cache line; TestFormatSpecsInline checks that every application spec
// fits it.
func TestMessageLayouts(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n != 64 {
		t.Fatalf("Message is %d bytes, want 64", n)
	}
	merged, err := Merge("m", parseITCH(t), MustParse("x", "header hx { k : u8 @field; s : str4 @field; }"))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*Spec{parseITCH(t), merged, wideSpec(t)}
	if !Inline(specs[0]) || !Inline(specs[1]) || Inline(specs[2]) {
		t.Fatal("the specs no longer cover both layouts")
	}
	for _, s := range specs {
		nf, nh := len(s.SubscribableFields()), len(s.Headers)
		msgs := append(NewMessages(s, 3), NewMessage(s))
		for mi, m := range msgs {
			if m.Spec() != s || m.HeaderMask() != 0 || m.String() != "{}" {
				t.Fatalf("%s msg %d: fresh message not empty: %v mask %#x", s.Name, mi, m, m.HeaderMask())
			}
			// Set the last field only: its header, and no other, turns valid.
			first, last := s.SubscribableFields()[0], s.SubscribableFields()[nf-1]
			m.SetIndex(nf-1, kindVal(last, mi))
			for i := 0; i < nf; i++ {
				if _, ok := m.Get(i); ok != (i == nf-1) {
					t.Fatalf("%s msg %d: field %d present = %v", s.Name, mi, i, ok)
				}
			}
			for hi, h := range s.Headers {
				if got := m.HeaderPresent(h.Name); got != (h.Name == last.Header) {
					t.Fatalf("%s msg %d: header %s present = %v", s.Name, mi, h.Name, got)
				}
				if hi < 64 && (m.HeaderMask()>>uint(hi)&1 != 0) != (h.Name == last.Header) {
					t.Fatalf("%s msg %d: mask %#x wrong at header %d", s.Name, mi, m.HeaderMask(), hi)
				}
			}
			if want := fmt.Sprintf("{%s=%s}", last.QName(), kindVal(last, mi)); m.String() != want {
				t.Fatalf("%s msg %d: String = %s, want %s", s.Name, mi, m, want)
			}
			// A header with no subscribable field set is marked by name.
			m.MarkHeader(s.Headers[0].Name)
			if !m.HeaderPresent(s.Headers[0].Name) || m.HeaderMask()&1 == 0 {
				t.Fatalf("%s msg %d: MarkHeader lost", s.Name, mi)
			}
			m.SetIndex(0, kindVal(first, 77))
			c := m.Clone()
			m.Reset()
			if m.HeaderMask() != 0 || m.String() != "{}" || m.HeaderPresent(last.Header) {
				t.Fatalf("%s msg %d: Reset left %v mask %#x", s.Name, mi, m, m.HeaderMask())
			}
			if v, ok := c.Get(0); !ok || !v.Equal(kindVal(first, 77)) {
				t.Fatalf("%s msg %d: clone field 0 = %v %v", s.Name, mi, v, ok)
			}
			if v, ok := c.Get(nf - 1); !ok || !v.Equal(kindVal(last, mi)) || !c.HeaderPresent(last.Header) || !c.HeaderPresent(s.Headers[0].Name) {
				t.Fatalf("%s msg %d: clone lost state: %v", s.Name, mi, c)
			}
			c.SetIndex(0, kindVal(first, 99))
			if _, ok := m.Get(0); ok {
				t.Fatalf("%s msg %d: clone shares presence with its original", s.Name, mi)
			}
		}
		// Slab neighbours do not bleed into each other.
		a := NewMessages(s, 2)
		a[0].SetIndex(nf-1, kindVal(s.SubscribableFields()[nf-1], 1))
		a[0].MarkHeaderIndex(nh - 1)
		if a[1].String() != "{}" || a[1].HeaderPresent(s.Headers[nh-1].Name) {
			t.Fatalf("%s: slab neighbour sees %v", s.Name, a[1])
		}
	}
}

// TestMessageAllocs pins what a message costs: one allocation singly or
// cloned, and one for each chunk a slab fills. A 2-message slab shares
// its chunks with the slabs before it and costs nothing; a 64-message
// one that overruns what the one before it left of a 127-message chunk
// takes that tail and the rest of a fresh chunk, so the message chunk
// refills every other slab and rounds to 0 per run (the pointer slices
// share theirs too). A spec too wide for the struct pays one more
// singly, and one more per 64-message slab for its out-of-line words.
// The slab pins need a build without the race detector, which defeats
// the pool.
func TestMessageAllocs(t *testing.T) {
	for _, tc := range []struct {
		s     *Spec
		extra float64
	}{{parseITCH(t), 0}, {wideSpec(t), 1}} {
		s := tc.s
		m := NewMessage(s)
		m.SetIndex(1, IntVal(5))
		var keep *Message
		var keepAll []*Message
		if n := testing.AllocsPerRun(100, func() { keep = NewMessage(s) }); n != 1+tc.extra {
			t.Errorf("%s: NewMessage: %v allocations, want %v", s.Name, n, 1+tc.extra)
		}
		if n := testing.AllocsPerRun(100, func() { keep = m.Clone() }); n != 1+tc.extra {
			t.Errorf("%s: Clone: %v allocations, want %v", s.Name, n, 1+tc.extra)
		}
		if !raceEnabled {
			if n := testing.AllocsPerRun(100, func() { keepAll = NewMessages(s, 2) }); n != 0 {
				t.Errorf("%s: NewMessages(2): %v allocations, want 0", s.Name, n)
			}
			if n := testing.AllocsPerRun(100, func() { keepAll = NewMessages(s, 64) }); n != tc.extra {
				t.Errorf("%s: NewMessages(64): %v allocations, want %v", s.Name, n, tc.extra)
			}
		}
		_, _ = keep, keepAll
	}
}

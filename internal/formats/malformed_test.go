package formats

import (
	"math/rand"
	"runtime"
	"testing"

	"camus/internal/packet"
	"camus/internal/spec"
)

// wireFormat is one datagram decoder with a well-formed frame for it.
// A frame is `header` bytes of fixed framing whose last two bytes may be
// a big-endian count of unit-byte items that must follow (unit 0: none),
// at most max of them.
type wireFormat struct {
	name              string
	good              []byte
	header, unit, max int
	decode            func([]byte) error
}

// wantLen is the length a frame's own framing implies.
func (wf wireFormat) wantLen(frame []byte) int {
	if wf.unit == 0 || len(frame) < wf.header {
		return wf.header
	}
	return wf.header + wf.unit*(int(frame[wf.header-2])<<8|int(frame[wf.header-1]))
}

// withCount returns the good frame with its count field overwritten.
func (wf wireFormat) withCount(count int) []byte {
	out := append([]byte(nil), wf.good...)
	out[wf.header-2], out[wf.header-1] = byte(count>>8), byte(count)
	return out
}

func wireFormats(t *testing.T) []wireFormat {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := func(f func([]byte) (*spec.Message, error)) func([]byte) error {
		return func(b []byte) error { _, err := f(b); return err }
	}
	itch := must(EncodeITCHFeed("SESSION", 7, eightOrders()[:2]))
	return []wireFormat{
		{"ITCHFeed", itch, moldCodec.Size(), ITCHOrderBytes, ITCHMaxBatch,
			func(b []byte) error { _, err := DecodeITCHFeed(b); return err }},
		{"ITCHPass", itch, moldCodec.Size(), ITCHOrderBytes, ITCHMaxBatch,
			func(b []byte) error { _, _, err := DecodeITCHPass(b, 1, 1); return err }},
		{"INT", must(EncodeINT(&INTReport{FlowID: 1, SwitchID: 2, HopLatency: 3})), INTReportBytes, 0, 0, one(DecodeINT)},
		{"ILA", must(EncodeILA(&ILAPacket{Locator: 1, Identifier: 2})), ilaCodec.Size(), 0, 0, one(DecodeILA)},
		{"HICN", must(EncodeHICN(&HICNRequest{NamePrefix: "/video", ContentID: 7})), hicnCodec.Size(), 0, 0, one(DecodeHICN)},
		{"DNS", must(EncodeDNS(&DNSQuery{TxID: 1, QType: QTypeA, Name: "example.com"})), dnsCodec.Size(), 0, 0, one(DecodeDNS)},
		{"Highway", must(EncodeHighway(&PositionReport{CarID: 1, X: 2, Y: 3, Speed: 60})), highwayCodec.Size(), 0, 0, one(DecodeHighway)},
		{"Kafka", must(EncodeKafka(&KafkaMessage{Topic: "t", Payload: []byte("payload")})), kafkaCodec.Size(), 1, KafkaMaxPayload,
			func(b []byte) error { _, _, err := DecodeKafka(b); return err }},
	}
}

func eightOrders() []*Order {
	orders := make([]*Order, 8)
	for i := range orders {
		orders[i] = &Order{Stock: "SYM" + string(rune('A'+i)), Price: int64(100 + i), Shares: int64(i), Buy: i%2 == 0}
	}
	return orders
}

// TestMalformedFrames: every datagram decoder turns a frame whose length
// disagrees with its format into an error; it never panics and never
// reads past the slice (each frame is cut to its exact capacity, so an
// over-read indexes out of range).
func TestMalformedFrames(t *testing.T) {
	for _, wf := range wireFormats(t) {
		if err := wf.decode(wf.good); err != nil {
			t.Fatalf("%s: well-formed frame rejected: %v", wf.name, err)
		}
		cases := map[string][]byte{
			"empty":            {},
			"one byte":         wf.good[:1],
			"one byte short":   wf.good[:len(wf.good)-1],
			"trailing garbage": append(append([]byte(nil), wf.good...), 0xDE, 0xAD),
		}
		if wf.unit > 0 {
			have := (len(wf.good) - wf.header) / wf.unit
			cases["header only"] = wf.good[:wf.header]
			cases["count larger than payload"] = wf.withCount(have + 1)
			cases["count smaller than payload"] = wf.withCount(have - 1)
			cases["count over 1024"] = wf.withCount(1025)
			cases["count 65535"] = wf.withCount(65535)
			// Framing that agrees with itself but exceeds what the encoder
			// would ever write: decode holds the encoder's limit.
			cases["count over limit, with its payload"] = append(wf.withCount(wf.max + 1)[:wf.header], make([]byte, (wf.max+1)*wf.unit)...)
		}
		for name, frame := range cases {
			if err := wf.decode(frame[:len(frame):len(frame)]); err == nil {
				t.Errorf("%s: %s (%d bytes) decoded", wf.name, name, len(frame))
			}
		}
		// Random bytes of every length around the good one: no panic, and
		// whatever decodes had the length its own framing implies.
		r := rand.New(rand.NewSource(5))
		for n := 0; n < len(wf.good)+40; n++ {
			frame := make([]byte, n)
			r.Read(frame)
			if err := wf.decode(frame); err == nil && n != wf.wantLen(frame) {
				t.Errorf("%s: %d random bytes decoded", wf.name, n)
			}
		}
	}
}

// TestDecodeFrameTruncated: the base stack refuses a frame cut anywhere
// inside its three headers.
func TestDecodeFrameTruncated(t *testing.T) {
	frame, err := EncodeFrame(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 1, 2, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < FrameOverheadBytes; n++ {
		if _, err := DecodeFrame(frame[:n:n], spec.NewMessage(NetBase)); err == nil {
			t.Errorf("%d-byte frame decoded", n)
		}
	}
	if rest, err := DecodeFrame(frame, spec.NewMessage(NetBase)); err != nil || string(rest) != "x" {
		t.Errorf("full frame: payload %q, err %v", rest, err)
	}
}

// TestDecodedMessagesDoNotAliasFrame: a caller may reuse its receive
// buffer the moment DecodeITCHFeed returns, and what it got is what
// Order.FillMessage builds.
func TestDecodedMessagesDoNotAliasFrame(t *testing.T) {
	orders := eightOrders()
	frame, err := EncodeITCHFeed("S", 1, orders)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := DecodeITCHFeed(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	built := spec.NewMessage(ITCH)
	for i, m := range msgs {
		orders[i].FillMessage(built)
		if m.String() != built.String() || m.HeaderMask() != built.HeaderMask() {
			t.Errorf("message %d: decoded %s mask %#x, built %s mask %#x",
				i, m, m.HeaderMask(), built, built.HeaderMask())
		}
	}

	// One message filled from several string-bearing headers keeps every
	// header's strings: each Decode adds to the message's bytes, none
	// replaces what an earlier one put there.
	merged, err := spec.Merge("hicn+dns+kafka", HICN, DNS, Kafka)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(merged)
	for _, part := range []struct {
		header string
		values map[string]spec.Value
	}{
		{"hicn_request", map[string]spec.Value{"name_prefix": spec.StrVal("/video/cats"), "content_id": spec.IntVal(7), "segment": spec.IntVal(3)}},
		{"dns_query", map[string]spec.Value{"qtype": spec.IntVal(QTypeA), "name": spec.StrVal("example.org")}},
		{"kafka_msg", map[string]spec.Value{"topic": spec.StrVal("orders"), "partition": spec.IntVal(2), "key_hash": spec.IntVal(99)}},
	} {
		c := packet.MustHeaderCodec(merged, part.header)
		buf := make([]byte, c.Size())
		for name, v := range part.values {
			if err := c.MustField(name).Put(buf, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Decode(buf, m); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	for ref, want := range map[string]spec.Value{
		"name_prefix": spec.StrVal("/video/cats"), "content_id": spec.IntVal(7), "segment": spec.IntVal(3),
		"dns_query.name": spec.StrVal("example.org"), "qtype": spec.IntVal(QTypeA),
		"topic": spec.StrVal("orders"), "partition": spec.IntVal(2),
	} {
		if got, ok := m.GetRef(ref); !ok || !got.Equal(want) {
			t.Errorf("%s = %v %v after three decodes, want %v", ref, got, ok, want)
		}
	}
}

// TestDecodeIntoForeignSpec: decoding into a message of another spec is
// an error (it used to index out of range).
func TestDecodeIntoForeignSpec(t *testing.T) {
	frame, err := EncodeFrame(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 1, 2, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(frame, spec.NewMessage(DNS)); err == nil {
		t.Error("DecodeFrame filled a DNS message")
	}
}

// TestDecodeAllocs pins what a frame costs, exactly. Decoding costs
// nothing: an ITCH frame's messages and their pointer slice, and a single
// report's message, are carved from pooled chunks, and a chunk refill
// every hundred-odd messages rounds to 0 per run (in a build without the
// race detector, which defeats the pool). The bytes are pinned too, so a
// message that grows fails here and not only in a benchmark: per order a
// 64-byte message and an 8-byte pointer slot (the 8 stock bytes sit in
// the message's spare fifth word, not in a string chunk), per report the
// message alone, within the
// rounding of the 8 KB chunks they are carved from: 127 messages take
// 8128 bytes of an 8192-byte object, a frame whose messages overrun a
// chunk's tail carves that tail before it refills (no message slot goes
// unused), and a collection may drop the pool's partly used chunks
// (three, one of each kind, are allowed for).
// Encoding any frame: the frame.
func TestDecodeAllocs(t *testing.T) {
	orders := eightOrders()
	frame, err := EncodeITCHFeed("S", 1, orders)
	if err != nil {
		t.Fatal(err)
	}
	report, err := EncodeINT(&INTReport{FlowID: 1, SwitchID: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	decodeITCH := func() {
		msgs, _ := DecodeITCHFeed(frame)
		sink += len(msgs)
	}
	decodeINT := func() {
		m, _ := DecodeINT(report)
		sink += int(m.HeaderMask())
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(200, decodeITCH); n != 0 {
			t.Errorf("DecodeITCHFeed(8 orders): %v allocations, want 0", n)
		}
		if n := testing.AllocsPerRun(200, decodeINT); n != 0 {
			t.Errorf("DecodeINT: %v allocations, want 0", n)
		}
		for _, tc := range []struct {
			name   string
			frames int
			decode func()
			want   float64
		}{
			{"DecodeITCHFeed(8 orders)", 8192, decodeITCH, 8 * (64 + 8)},
			{"DecodeINT", 16384, decodeINT, 64},
		} {
			most := tc.want*8192/8128 + 3*8192/float64(tc.frames)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range tc.frames {
				tc.decode()
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.frames); got < tc.want*0.98 || got > most {
				t.Errorf("%s: %.1f bytes per frame, want %v to %.1f", tc.name, got, tc.want, most)
			}
		}
	}
	for name, encode := range map[string]func() ([]byte, error){
		"EncodeITCHFeed(8 orders)": func() ([]byte, error) { return EncodeITCHFeed("S", 1, orders) },
		"EncodeINT":                func() ([]byte, error) { return EncodeINT(&INTReport{FlowID: 1, SwitchID: 2}) },
		"EncodeFrame":              func() ([]byte, error) { return EncodeFrame(1, 2, 3, 4, report) },
		"EncodeKafka":              func() ([]byte, error) { return EncodeKafka(&KafkaMessage{Topic: "t", Payload: report}) },
	} {
		if n := testing.AllocsPerRun(200, func() {
			b, _ := encode()
			sink += len(b)
		}); n != 1 {
			t.Errorf("%s: %v allocations, want 1", name, n)
		}
	}
	if sink == 0 {
		t.Error("nothing decoded")
	}
}

package formats

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// zipfFeed is the benchmark's ITCH feed shape — seed 1, Zipf-batched 1–8
// add-orders per datagram — with every encoded field drawn across its
// whole range (the benchmark's generator leaves timestamp and locate 0).
func zipfFeed(datagrams int) [][]*Order {
	r := rand.New(rand.NewSource(1))
	batch := rand.NewZipf(r, 1.5, 1, 7)
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	feed := make([][]*Order, datagrams)
	for i := range feed {
		feed[i] = make([]*Order, 1+batch.Uint64())
		for j := range feed[i] {
			stock := make([]byte, 1+r.Intn(8))
			for k := range stock {
				stock[k] = letters[r.Intn(len(letters))]
			}
			feed[i][j] = &Order{
				Stock:  string(stock),
				Price:  r.Int63n(1 << 32),
				Shares: r.Int63n(1 << 32),
				Buy:    r.Intn(2) == 0,
				RefNum: r.Uint64(),
				TimeNS: r.Int63(),
				Locate: r.Intn(1 << 16),
			}
		}
	}
	return feed
}

// TestEncoderGoldens pins the bytes every encoder writes, not only what
// decodes back from them: padding that changed, or a value that spilled
// into a neighbouring field's bits, would still round-trip.
func TestEncoderGoldens(t *testing.T) {
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	r := rand.New(rand.NewSource(2))
	digest := func(frames func(add func([]byte))) string {
		h := sha256.New()
		frames(func(b []byte) { h.Write(b) })
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, g := range []struct {
		name, want string
		frames     func(add func([]byte))
	}{
		{"ITCH feed", "a5b0914b01c7c551df512be6d42345f9162c11864b76973182074a783720a146", func(add func([]byte)) {
			for i, orders := range zipfFeed(2048) {
				add(must(EncodeITCHFeed("CAMUSBENCH", uint64(i)<<40|uint64(i), orders)))
			}
		}},
		{"INT stream", "3e4db94587c99b83e30bf96c2e186ae3bc01e26e497fa11dade1169639a0afec", func(add func([]byte)) {
			for i := 0; i < 2048; i++ {
				add(must(EncodeINT(&INTReport{
					FlowID: r.Int63n(1 << 32), SwitchID: r.Int63n(1 << 32), HopLatency: r.Int63n(1 << 32),
					QueueDepth: r.Int63n(1 << 32), EgressPort: r.Int63n(1 << 16), TstampNS: int64(r.Uint64()),
				})))
			}
		}},
		{"Frame", "2c25c491e10efce1f26d520e659e4e1c3ad38cf3171afa2cd70d3ad128216697", func(add func([]byte)) {
			for i := 0; i < 256; i++ {
				add(must(EncodeFrame(r.Int63n(1<<32), r.Int63n(1<<32), r.Intn(1<<16), r.Intn(1<<16), make([]byte, r.Intn(64)))))
			}
		}},
		{"ILA", "64368e1f3f564e6a4f34e444346b7893368fb2d8bd75eaf16ebc7d2609667563", func(add func([]byte)) {
			add(must(EncodeILA(&ILAPacket{Locator: 0x20010db8_00000001, Identifier: -0x4112_5eed, SrcHi: 0x7fffffff_fffffffe, SrcLo: 3})))
		}},
		{"hICN", "9e303f84881f16388b4a4f0ad730869475c7e4685f9df699d68c3f62f7c8b7f8", func(add func([]byte)) {
			add(must(EncodeHICN(&HICNRequest{NamePrefix: "video/cats", ContentID: 0x0123456789abcdef, Segment: 0xfedcba98})))
		}},
		{"DNS", "517582d7ce9415d54f446de06e1141f98f0373221bba0ca35535c3a67568c210", func(add func([]byte)) {
			add(must(EncodeDNS(&DNSQuery{TxID: 0xbeef, QType: QTypeA, Name: "h105.rack7.example.org"})))
		}},
		{"highway", "710dfd26346b34de976b7ffc754e64799195be176fcb65ce31b592fbb26d354b", func(add func([]byte)) {
			add(must(EncodeHighway(&PositionReport{CarID: 0xdeadbeef, X: 0xffff, Y: 0x0101, Speed: 93, Highway: 0xa5})))
		}},
		{"Kafka", "2dfd8b07cc6f45fe188b785e6641b85f49adee2ae0ea33ef7ed4e64d20374d65", func(add func([]byte)) {
			add(must(EncodeKafka(&KafkaMessage{Topic: "metrics/cpu/host-17", Partition: 0xfffe, KeyHash: 0x89abcdef, Payload: []byte(`{"v":1,"u":"%"}`)})))
		}},
	} {
		if got := digest(g.frames); got != g.want {
			t.Errorf("%s: SHA-256 %s, golden %s", g.name, got, g.want)
		}
	}
}

// headersValid fails t when a decoded message holds a field of a header
// it lacks: the compiled walk skips validity tests on that never
// happening.
func headersValid(t *testing.T, m *spec.Message) {
	t.Helper()
	if err := m.CheckHeaders(); err != nil {
		t.Error(err)
	}
}

func TestITCHFeedRoundTrip(t *testing.T) {
	orders := []*Order{
		{Stock: "GOOGL", Price: 52, Shares: 100, Buy: true, RefNum: 1},
		{Stock: "MSFT", Price: 31, Shares: 200, Buy: false, RefNum: 2},
		{Stock: "AAPL", Price: 99, Shares: 50, Buy: true, RefNum: 3},
	}
	data, err := EncodeITCHFeed("SESSION01", 42, orders)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	wantLen := moldCodec.Size() + 3*ITCHOrderBytes
	if len(data) != wantLen {
		t.Errorf("encoded %d bytes, want %d", len(data), wantLen)
	}
	msgs, err := DecodeITCHFeed(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(msgs) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(msgs))
	}
	for i, o := range orders {
		headersValid(t, msgs[i])
		if v, _ := msgs[i].GetRef("stock"); v.Str != o.Stock {
			t.Errorf("msg %d stock = %q, want %q", i, v.Str, o.Stock)
		}
		if v, _ := msgs[i].GetRef("price"); v.Int != o.Price {
			t.Errorf("msg %d price = %d, want %d", i, v.Int, o.Price)
		}
		if v, _ := msgs[i].GetRef("shares"); v.Int != o.Shares {
			t.Errorf("msg %d shares = %d, want %d", i, v.Int, o.Shares)
		}
	}
	// Wire-decoded messages must drive the compiled pipeline just like
	// builder-made ones.
	rules, err := subscription.NewParser(ITCH).ParseRules("stock == GOOGL and price > 50: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(ITCH, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Eval(msgs[0], nil).Key(); got != "fwd(1)" {
		t.Errorf("GOOGL order eval = %s", got)
	}
	if got := prog.Eval(msgs[1], nil).Key(); got != "fwd()" {
		t.Errorf("MSFT order eval = %s", got)
	}
}

func TestITCHFeedErrors(t *testing.T) {
	if _, err := DecodeITCHFeed([]byte{1, 2, 3}); err == nil {
		t.Error("short datagram decoded")
	}
	data, err := EncodeITCHFeed("S", 1, []*Order{{Stock: "A", Price: 1, Shares: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeITCHFeed(data[:len(data)-4]); err == nil {
		t.Error("truncated order decoded")
	}
	// The encoder holds the decoder's batch limit: the largest batch
	// round-trips and one order more is refused, not written as a frame
	// no decoder accepts.
	orders := make([]*Order, ITCHMaxBatch+1)
	for i := range orders {
		orders[i] = &Order{Stock: "A", Price: int64(i)}
	}
	if data, err := EncodeITCHFeed("S", 1, orders); err == nil {
		t.Errorf("%d-order batch encoded to %d bytes", len(orders), len(data))
	}
	data, err = EncodeITCHFeed("S", 1, orders[:ITCHMaxBatch])
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := DecodeITCHFeed(data)
	if err != nil || len(msgs) != ITCHMaxBatch {
		t.Fatalf("%d-order batch: %d messages, err %v", ITCHMaxBatch, len(msgs), err)
	}
	if v, _ := msgs[ITCHMaxBatch-1].GetRef("price"); v.Int != ITCHMaxBatch-1 {
		t.Errorf("last order price = %d", v.Int)
	}
}

func TestITCHOrderMessageReuse(t *testing.T) {
	m := spec.NewMessage(ITCH)
	o1 := &Order{Stock: "GOOGL", Price: 10, Shares: 5, Buy: true}
	o1.FillMessage(m)
	if v, _ := m.GetRef("buy_sell"); v.Int != 'B' {
		t.Errorf("buy_sell = %d", v.Int)
	}
	o2 := &Order{Stock: "MSFT", Price: 20, Shares: 6}
	o2.FillMessage(m)
	if v, _ := m.GetRef("stock"); v.Str != "MSFT" {
		t.Errorf("reused message stock = %q", v.Str)
	}
	if v, _ := m.GetRef("buy_sell"); v.Int != 'S' {
		t.Errorf("reused buy_sell = %d", v.Int)
	}
}

func TestINTRoundTrip(t *testing.T) {
	r := &INTReport{FlowID: 9, SwitchID: 2, HopLatency: 150, QueueDepth: 7, EgressPort: 3, TstampNS: 12345}
	data, err := EncodeINT(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != INTReportBytes {
		t.Errorf("size = %d, want %d", len(data), INTReportBytes)
	}
	m, err := DecodeINT(data)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	if v, _ := m.GetRef("switch_id"); v.Int != 2 {
		t.Errorf("switch_id = %d", v.Int)
	}
	if v, _ := m.GetRef("hop_latency"); v.Int != 150 {
		t.Errorf("hop_latency = %d", v.Int)
	}
	// The paper's example filter.
	rules, err := subscription.NewParser(INT).ParseRules(
		"switch_id == 2 and hop_latency > 100: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(INT, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Eval(m, nil).Key(); got != "fwd(1)" {
		t.Errorf("eval = %s", got)
	}
}

func TestILARoundTrip(t *testing.T) {
	p := &ILAPacket{Locator: 0x2001, Identifier: 0xBEEF, SrcHi: 1, SrcLo: 2}
	data, err := EncodeILA(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 40 { // standard IPv6 header length
		t.Errorf("IPv6 header = %d bytes, want 40", len(data))
	}
	m, err := DecodeILA(data)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	if v, _ := m.GetRef("dst_identifier"); v.Int != 0xBEEF {
		t.Errorf("identifier = %#x", v.Int)
	}
	if v, _ := m.GetRef("dst_locator"); v.Int != 0x2001 {
		t.Errorf("locator = %#x", v.Int)
	}
}

func TestHICNRoundTrip(t *testing.T) {
	r := &HICNRequest{NamePrefix: "video/cats", ContentID: 77, Segment: 3}
	data, err := EncodeHICN(r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeHICN(data)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	if v, _ := m.GetRef("name_prefix"); v.Str != "video/cats" {
		t.Errorf("name = %q", v.Str)
	}
	// Prefix subscriptions on names.
	rules, err := subscription.NewParser(HICN).ParseRules(`name_prefix prefix "video/": fwd(1)`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(HICN, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Eval(m, nil).Key(); got != "fwd(1)" {
		t.Errorf("eval = %s", got)
	}
}

func TestDNSRoundTrip(t *testing.T) {
	q := &DNSQuery{TxID: 99, QType: QTypeA, Name: "h105"}
	data, err := EncodeDNS(q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeDNS(data)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	if v, _ := m.GetRef("name"); v.Str != "h105" {
		t.Errorf("name = %q", v.Str)
	}
	if v, _ := m.GetRef("qtype"); v.Int != QTypeA {
		t.Errorf("qtype = %d", v.Int)
	}
}

func TestHighwayRoundTrip(t *testing.T) {
	p := &PositionReport{CarID: 1001, X: 15, Y: 35, Speed: 60, Highway: 2}
	data, err := EncodeHighway(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeHighway(data)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	// The paper's speeding filter (§VIII-C6).
	rules, err := subscription.NewParser(Highway).ParseRules(
		"x > 10 and x < 20 and y > 30 and y < 40 and spd > 55: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(Highway, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Eval(m, nil).Key(); got != "fwd(1)" {
		t.Errorf("speeder not detected: %s", got)
	}
	slow := &PositionReport{CarID: 1002, X: 15, Y: 35, Speed: 50, Highway: 2}
	if got := prog.Eval(slow.Message(), nil).Key(); got != "fwd()" {
		t.Errorf("slow car matched: %s", got)
	}
}

func TestKafkaRoundTrip(t *testing.T) {
	k := &KafkaMessage{Topic: "metrics/cpu", Partition: 3, KeyHash: 0xABCD, Payload: []byte(`{"v":1}`)}
	data, err := EncodeKafka(k)
	if err != nil {
		t.Fatal(err)
	}
	m, payload, err := DecodeKafka(data)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	if string(payload) != `{"v":1}` {
		t.Errorf("payload = %q", payload)
	}
	if v, _ := m.GetRef("topic"); v.Str != "metrics/cpu" {
		t.Errorf("topic = %q", v.Str)
	}
	big := &KafkaMessage{Topic: "t", Payload: make([]byte, KafkaMaxPayload+1)}
	if _, err := EncodeKafka(big); err == nil {
		t.Error("oversized payload encoded")
	}
}

func TestNetBaseFrame(t *testing.T) {
	payload := []byte("hello")
	data, err := EncodeFrame(IPv4(10, 0, 0, 1), IPv4(192, 168, 0, 1), 4000, 5000, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != FrameOverheadBytes+len(payload) {
		t.Errorf("frame = %d bytes, want %d", len(data), FrameOverheadBytes+len(payload))
	}
	m := spec.NewMessage(NetBase)
	rest, err := DecodeFrame(data, m)
	if err != nil {
		t.Fatal(err)
	}
	headersValid(t, m)
	if string(rest) != "hello" {
		t.Errorf("payload = %q", rest)
	}
	if v, _ := m.GetRef("dst"); v.Int != IPv4(192, 168, 0, 1) {
		t.Errorf("dst = %#x", v.Int)
	}
	// The paper's §II example subscription works against the base stack.
	rules, err := subscription.NewParser(NetBase).ParseRules("dst == 192.168.0.1: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(NetBase, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Eval(m, nil).Key(); got != "fwd(1)" {
		t.Errorf("eval = %s", got)
	}
}

// TestFeedRoundTripProperty: random batches of random orders round-trip
// through the wire encoding (testing/quick).
func TestFeedRoundTripProperty(t *testing.T) {
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB", "NFLX"}
	r := rand.New(rand.NewSource(1))
	f := func(n uint8, seed int64) bool {
		count := int(n%16) + 1
		rr := rand.New(rand.NewSource(seed))
		orders := make([]*Order, count)
		for i := range orders {
			orders[i] = &Order{
				Stock:  stocks[rr.Intn(len(stocks))],
				Price:  int64(rr.Intn(100000)),
				Shares: int64(rr.Intn(100000)),
				Buy:    rr.Intn(2) == 0,
				RefNum: rr.Uint64() >> 1,
			}
		}
		data, err := EncodeITCHFeed("S", uint64(r.Uint32()), orders)
		if err != nil {
			return false
		}
		msgs, err := DecodeITCHFeed(data)
		if err != nil || len(msgs) != count {
			return false
		}
		for i, o := range orders {
			stock, _ := msgs[i].GetRef("stock")
			price, _ := msgs[i].GetRef("price")
			shares, _ := msgs[i].GetRef("shares")
			if stock.Str != o.Stock || price.Int != o.Price || shares.Int != o.Shares {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodeITCHPass: the Fig. 7 budgeted multi-pass parse yields exactly
// the one-shot parse, pass boundaries included.
func TestDecodeITCHPass(t *testing.T) {
	orders := make([]*Order, 11)
	for i := range orders {
		orders[i] = &Order{Stock: fmt.Sprintf("S%02d", i), Price: int64(i), Shares: int64(i * 2)}
	}
	data, err := EncodeITCHFeed("S", 1, orders)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := DecodeITCHFeed(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 3, 4, 11, 100} {
		var all []*spec.Message
		passes := 0
		for start := 0; start != -1; {
			msgs, next, err := DecodeITCHPass(data, start, budget)
			if err != nil {
				t.Fatalf("budget %d pass at %d: %v", budget, start, err)
			}
			all = append(all, msgs...)
			start = next
			passes++
			if passes > 20 {
				t.Fatalf("budget %d: parser did not terminate", budget)
			}
		}
		if len(all) != len(oneShot) {
			t.Fatalf("budget %d: %d messages, want %d", budget, len(all), len(oneShot))
		}
		for i := range all {
			a, _ := all[i].GetRef("stock")
			b, _ := oneShot[i].GetRef("stock")
			if a.Str != b.Str {
				t.Fatalf("budget %d msg %d: %q != %q", budget, i, a.Str, b.Str)
			}
		}
		wantPasses := (len(orders) + budget - 1) / budget
		if budget >= len(orders) {
			wantPasses = 1
		}
		if passes != wantPasses {
			t.Errorf("budget %d: %d passes, want %d", budget, passes, wantPasses)
		}
	}
	// Out-of-range start terminates immediately.
	if msgs, next, err := DecodeITCHPass(data, 50, 4); err != nil || next != -1 || len(msgs) != 0 {
		t.Errorf("past-end pass: %v %d %v", msgs, next, err)
	}
	// A budget past the end takes the rest of the batch, however large:
	// start + budget must not overflow into a negative message count.
	for _, start := range []int{0, 1, 10} {
		msgs, next, err := DecodeITCHPass(data, start, math.MaxInt)
		if err != nil || next != -1 || len(msgs) != len(orders)-start {
			t.Errorf("pass at %d, budget MaxInt: %d messages, next %d, %v", start, len(msgs), next, err)
		}
	}
}

// TestMergedSpecs: ITCH and INT co-exist on a merged spec (§VIII-D1) and
// rules written against either application dispatch on header validity.
func TestMergedSpecs(t *testing.T) {
	merged, err := spec.Merge("itch+int", ITCH, INT)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	p := subscription.NewParser(merged)
	rules, err := p.ParseRules(`
stock == GOOGL: fwd(1)
switch_id == 2 and hop_latency > 100: fwd(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(merged, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An ITCH packet must only match ITCH rules.
	itchMsg := spec.NewMessage(merged)
	itchMsg.MustSet("stock", spec.StrVal("GOOGL"))
	itchMsg.MustSet("price", spec.IntVal(1))
	itchMsg.MustSet("shares", spec.IntVal(1))
	itchMsg.MustSet("buy_sell", spec.IntVal('B'))
	if got := prog.Eval(itchMsg, nil).Key(); got != "fwd(1)" {
		t.Errorf("ITCH packet eval = %s", got)
	}
	// An INT packet with values that would confuse unguarded matching.
	intMsg := spec.NewMessage(merged)
	intMsg.MustSet("switch_id", spec.IntVal(2))
	intMsg.MustSet("hop_latency", spec.IntVal(150))
	intMsg.MustSet("flow_id", spec.IntVal(0))
	intMsg.MustSet("queue_depth", spec.IntVal(0))
	intMsg.MustSet("egress_port", spec.IntVal(0))
	if got := prog.Eval(intMsg, nil).Key(); got != "fwd(2)" {
		t.Errorf("INT packet eval = %s", got)
	}
}

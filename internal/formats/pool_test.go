package formats

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"camus/internal/spec"
)

// ordersFor returns n orders whose stocks, prices and sizes are all
// distinct for distinct tags, so a message that took another frame's
// bytes cannot pass for its own.
func ordersFor(tag, n int) []*Order {
	orders := make([]*Order, n)
	for i := range orders {
		orders[i] = &Order{Stock: fmt.Sprintf("T%dO%d", tag, i), Price: int64(tag*16 + i), Shares: int64(tag + i), Buy: (tag+i)%2 == 0}
	}
	return orders
}

// checkOrders reports the first way msgs do not hold exactly the
// orders, field by field, or nil.
func checkOrders(msgs []*spec.Message, orders []*Order) error {
	if len(msgs) != len(orders) {
		return fmt.Errorf("%d messages, want %d", len(msgs), len(orders))
	}
	for i, m := range msgs {
		if got, want := m.String(), orders[i].Message().String(); got != want {
			return fmt.Errorf("message %d is %s, want %s", i, got, want)
		}
		if !m.HeaderValid(moldIndex) {
			return fmt.Errorf("message %d lost its moldudp header", i)
		}
	}
	return nil
}

// TestDecodedMessagesOutliveTheirChunks: decoded messages are carved from
// pooled chunks that are handed out once, so messages decoded first keep
// every field, their stock strings and a DNS name included, across
// 10 000 later decodes that fill and abandon many message, pointer and
// string chunks (and across collections, which empty the pools).
func TestDecodedMessagesOutliveTheirChunks(t *testing.T) {
	first := ordersFor(0, 8)
	frame, err := EncodeITCHFeed("S", 1, first)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := DecodeITCHFeed(frame)
	if err != nil {
		t.Fatal(err)
	}
	query, err := EncodeDNS(&DNSQuery{TxID: 1, QType: QTypeA, Name: "kept.example"})
	if err != nil {
		t.Fatal(err)
	}
	dns, err := DecodeDNS(query)
	if err != nil {
		t.Fatal(err)
	}
	const later = 10000
	frames := make([][]byte, 16)
	for i := range frames {
		if frames[i], err = EncodeITCHFeed("S", uint64(i), ordersFor(i+1, 1+i%8)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < later; i++ {
		msgs, err := DecodeITCHFeed(frames[i%len(frames)])
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			if err := checkOrders(msgs, ordersFor(i%len(frames)+1, 1+i%len(frames)%8)); err != nil {
				t.Fatalf("later frame %d: %v", i, err)
			}
			runtime.GC()
		}
		if _, err := DecodeDNS(query); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkOrders(kept, first); err != nil {
		t.Errorf("first frame: %v", err)
	}
	if v, ok := dns.GetRef("name"); !ok || v.Str != "kept.example" {
		t.Errorf("first DNS query: name %v (present %v), want kept.example", v, ok)
	}
}

// TestKeptMessageOutlivesItsFrame: a decoded message that is all that is
// left of its frame keeps its string bytes alive and unchanged. A message
// reaches its string bytes through one pointer to their base, so if the
// collector missed it, the string chunk would be freed and handed to the
// 8 KB allocations made here between collections, which overwrite it. The
// test runs under -race too, whose checkptr instrumentation checks every
// conversion of that pointer.
func TestKeptMessageOutlivesItsFrame(t *testing.T) {
	const stock = "KEPT"
	var kept *spec.Message
	func() {
		orders := ordersFor(1, 8)
		orders[5].Stock = stock
		frame, err := EncodeITCHFeed("S", 1, orders)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := DecodeITCHFeed(frame)
		if err != nil {
			t.Fatal(err)
		}
		kept = msgs[5]
	}()
	other, err := EncodeITCHFeed("S", 2, ordersFor(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	var junk [][]byte
	for round := 0; round < 10; round++ {
		runtime.GC()
		junk = junk[:0]
		for i := 0; i < 64; i++ {
			b := make([]byte, 8192)
			for j := range b {
				b[j] = 'X'
			}
			junk = append(junk, b)
		}
		for i := 0; i < 256; i++ {
			if _, err := DecodeITCHFeed(other); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok := kept.GetRef("stock"); !ok || v.Str != stock {
			t.Fatalf("round %d: kept message's stock is %v (present %v), want %s", round, v, ok, stock)
		}
	}
	if len(junk) == 0 {
		t.Error("nothing allocated")
	}
}

// inMessage reports whether str's bytes lie inside m's struct: in its
// spare field words.
func inMessage(m *spec.Message, str string) bool {
	base, p := uintptr(unsafe.Pointer(m)), uintptr(unsafe.Pointer(unsafe.StringData(str)))
	return str != "" && p >= base && p+uintptr(len(str)) <= base+unsafe.Sizeof(*m)
}

// TestSpareStringsNeverChange: a decoded order's stock bytes sit in the
// message's spare fifth word, which the codec writes once, when it
// carves the message. A stock read by Get before stays equal whatever
// happens after, to the message or to a clone that shares those bytes:
// nothing writes the spare word again.
func TestSpareStringsNeverChange(t *testing.T) {
	stock, _ := ITCH.Field("stock")
	idx, _ := ITCH.SubscribableIndex(stock)
	otherFrame, err := EncodeITCHFeed("S", 2, ordersFor(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	otherOrder := otherFrame[moldCodec.Size():]
	for _, c := range []struct {
		name  string
		after func(t *testing.T, m *spec.Message)
	}{
		{"reset and SetIndex", func(t *testing.T, m *spec.Message) {
			m.Reset()
			m.SetIndex(idx, spec.StrVal("RESET"))
		}},
		{"decode into it again", func(t *testing.T, m *spec.Message) {
			if _, err := orderCodec.Decode(otherOrder, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"clone, then change the clone", func(t *testing.T, m *spec.Message) {
			cl := m.Clone()
			if cl.String() != m.String() {
				t.Fatalf("clone %s, message %s", cl, m)
			}
			cl.SetIndex(idx, spec.StrVal("CLONE"))
			if _, err := orderCodec.Decode(otherOrder, cl); err != nil {
				t.Fatal(err)
			}
			cl.Reset()
			cl.SetIndex(idx, spec.StrVal("AGAIN"))
		}},
		{"collections and later decodes", func(t *testing.T, m *spec.Message) {
			for round := 0; round < 5; round++ {
				runtime.GC()
				for i := 0; i < 256; i++ {
					if _, err := DecodeITCHFeed(otherFrame); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			orders := ordersFor(1, 8)
			orders[3].Stock = "SPAREWD"
			frame, err := EncodeITCHFeed("S", 1, orders)
			if err != nil {
				t.Fatal(err)
			}
			msgs, err := DecodeITCHFeed(frame)
			if err != nil {
				t.Fatal(err)
			}
			m := msgs[3]
			v, ok := m.Get(idx)
			if !ok || v.Str != "SPAREWD" || !inMessage(m, v.Str) {
				t.Fatalf("stock %v (present %v, in the message %v), want SPAREWD in a spare word", v, ok, inMessage(m, v.Str))
			}
			c.after(t, m)
			if v.Str != "SPAREWD" {
				t.Errorf("the stock read before reads %q after", v.Str)
			}
		})
	}
}

// TestSpareWordSpecs names the format specs whose decoded strings sit in
// the message's spare field words — ITCH (4 fields, 8 stock bytes in the
// fifth word) and hICN (3 fields, the 16 name_prefix bytes in the fourth
// and fifth) — and those whose string bytes take the string slab: DNS
// and Kafka, whose 32-byte fields fit no message.
func TestSpareWordSpecs(t *testing.T) {
	itch, err := EncodeITCHFeed("S", 1, ordersFor(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	hicn, err := EncodeHICN(&HICNRequest{NamePrefix: "/video/abc", ContentID: 7})
	if err != nil {
		t.Fatal(err)
	}
	dns, err := EncodeDNS(&DNSQuery{TxID: 1, QType: QTypeA, Name: "a.example"})
	if err != nil {
		t.Fatal(err)
	}
	kafka, err := EncodeKafka(&KafkaMessage{Topic: "orders/eu"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sp     *spec.Spec
		field  string
		decode func() (*spec.Message, error)
		spare  bool
	}{
		{ITCH, "stock", func() (*spec.Message, error) {
			msgs, err := DecodeITCHFeed(itch)
			if err != nil {
				return nil, err
			}
			return msgs[1], nil
		}, true},
		{HICN, "name_prefix", func() (*spec.Message, error) { return DecodeHICN(hicn) }, true},
		{DNS, "name", func() (*spec.Message, error) { return DecodeDNS(dns) }, false},
		{Kafka, "topic", func() (*spec.Message, error) {
			m, _, err := DecodeKafka(kafka)
			return m, err
		}, false},
	} {
		m, err := c.decode()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := m.GetRef(c.field)
		if !ok || v.Str == "" {
			t.Fatalf("%s: %s = %v, present %v", c.sp.Name, c.field, v, ok)
		}
		if got := inMessage(m, v.Str); got != c.spare {
			t.Errorf("%s: %s in a spare word %v, want %v (%d spare bytes)", c.sp.Name, c.field, got, c.spare, c.sp.SpareBytes())
		}
	}
}

// TestConcurrentDecode: goroutines decoding distinct frames at once each
// get messages of their own frame only — no two carve the same region of
// a pooled chunk. Run it under -race.
func TestConcurrentDecode(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		orders := ordersFor(w, 1+w%8)
		frame, err := EncodeITCHFeed("S", uint64(w), orders)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			kept := make([][]*spec.Message, rounds)
			for r := range kept {
				msgs, err := DecodeITCHFeed(frame)
				if err != nil {
					t.Error(err)
					return
				}
				kept[r] = msgs
			}
			for r, msgs := range kept {
				if err := checkOrders(msgs, orders); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

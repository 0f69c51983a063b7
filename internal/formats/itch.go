package formats

import (
	"fmt"

	"camus/internal/packet"
	"camus/internal/spec"
)

// ITCH is the Nasdaq market-data application (§VIII-C1): a MoldUDP64
// datagram carrying a count of fixed-width ITCH add-order messages. The
// annotated fields mirror the paper's Fig. 4.
var ITCH = spec.MustParse("itch", `
header moldudp {
    session : str10;
    sequence : u64;
    count : u16;
}
header itch_order {
    msg_type : u8;
    stock_locate : u16;
    tracking : u16;
    timestamp : u48;
    order_ref : u64;
    buy_sell : u8 @field_exact;
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
    @counter(my_counter, 100us)
}
`)

var (
	moldCodec  = packet.MustHeaderCodec(ITCH, "moldudp")
	moldCount  = moldCodec.MustField("count")
	moldIndex  = ITCH.HeaderIndex("moldudp")
	moldFields = fieldsOf(moldCodec, "session", "sequence", "count")

	orderCodec  = packet.MustHeaderCodec(ITCH, "itch_order")
	orderFields = fieldsOf(orderCodec, "msg_type", "stock_locate", "timestamp", "order_ref",
		"buy_sell", "shares", "price", "stock")
)

// ITCHOrderBytes is the wire size of one add-order message.
var ITCHOrderBytes = orderCodec.Size()

// ITCHMaxBatch is the most add-orders one MoldUDP datagram may carry:
// EncodeITCHFeed refuses a larger batch and the decoders a larger count.
const ITCHMaxBatch = 1024

// Order is one ITCH add-order message.
type Order struct {
	Seq    uint64
	Stock  string
	Price  int64
	Shares int64
	Buy    bool
	RefNum uint64
	TimeNS int64
	Locate int
}

// Message builds the decoded form of the order for direct pipeline
// injection (bypassing wire encoding on simulator hot paths).
func (o *Order) Message() *spec.Message {
	m := spec.NewMessage(ITCH)
	o.FillMessage(m)
	return m
}

// FillMessage populates a caller-owned message (zero-alloc hot path).
func (o *Order) FillMessage(m *spec.Message) {
	m.Reset()
	bs := int64('S')
	if o.Buy {
		bs = int64('B')
	}
	m.MustSet("buy_sell", spec.IntVal(bs))
	m.MustSet("shares", spec.IntVal(o.Shares))
	m.MustSet("price", spec.IntVal(o.Price))
	m.MustSet("stock", spec.StrVal(o.Stock))
	m.MarkHeader("moldudp")
}

// EncodeITCHFeed encodes a MoldUDP datagram carrying the given orders.
func EncodeITCHFeed(session string, seq uint64, orders []*Order) ([]byte, error) {
	if len(orders) > ITCHMaxBatch {
		return nil, fmt.Errorf("formats: ITCH batch of %d orders exceeds %d", len(orders), ITCHMaxBatch)
	}
	buf, err := encode(moldCodec.Size()+len(orders)*ITCHOrderBytes, moldFields,
		spec.StrVal(session), spec.IntVal(int64(seq)), spec.IntVal(int64(len(orders))))
	if err != nil {
		return nil, err
	}
	for i, o := range orders {
		side := int64('S')
		if o.Buy {
			side = 'B'
		}
		if err := put(buf[moldCodec.Size()+i*ITCHOrderBytes:], orderFields,
			spec.IntVal('A'), spec.IntVal(int64(o.Locate)), spec.IntVal(o.TimeNS&0xFFFFFFFFFFFF), spec.IntVal(int64(o.RefNum)),
			spec.IntVal(side), spec.IntVal(o.Shares), spec.IntVal(o.Price), spec.StrVal(o.Stock)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// itchBatch checks a MoldUDP datagram's framing once — header present,
// plausible count, exactly count order messages behind it — and returns
// the count and the order bytes.
func itchBatch(data []byte) (count int, orders []byte, err error) {
	if len(data) < moldCodec.Size() {
		return 0, nil, fmt.Errorf("formats: ITCH: moldudp needs %d bytes, have %d", moldCodec.Size(), len(data))
	}
	count = int(moldCount.Uint(data))
	if count > ITCHMaxBatch {
		return 0, nil, fmt.Errorf("formats: implausible ITCH count %d", count)
	}
	orders = data[moldCodec.Size():]
	if len(orders) != count*ITCHOrderBytes {
		return 0, nil, fmt.Errorf("formats: ITCH count %d needs %d order bytes, have %d",
			count, count*ITCHOrderBytes, len(orders))
	}
	return count, orders, nil
}

// decodeOrders extracts the n order messages at the head of orders into
// one message slab.
func decodeOrders(orders []byte, n int) ([]*spec.Message, error) {
	msgs, _, err := orderCodec.DecodeNew(orders, n)
	if err != nil {
		return nil, fmt.Errorf("formats: ITCH: %w", err)
	}
	for _, m := range msgs {
		m.MarkHeaderIndex(moldIndex)
	}
	return msgs, nil
}

// DecodeITCHPass is the budgeted parser pass of the paper's Fig. 7: one
// recirculation pass skips the first `startMsg` messages without
// extracting them (the red counter loop), then extracts up to `maxMsgs`
// messages (PHV budget), leaving the rest for the next pass. It returns
// the decoded messages and the index of the next unparsed message, or
// -1 when the batch is exhausted.
func DecodeITCHPass(data []byte, startMsg, maxMsgs int) (msgs []*spec.Message, next int, err error) {
	count, orders, err := itchBatch(data)
	if err != nil {
		return nil, -1, err
	}
	if startMsg < 0 || startMsg >= count {
		return nil, -1, nil
	}
	end := count
	if maxMsgs > 0 && maxMsgs < count-startMsg {
		end = startMsg + maxMsgs
	}
	// Counter loop: shift the parse buffer past the skipped messages
	// without writing them to the PHV.
	if msgs, err = decodeOrders(orders[startMsg*ITCHOrderBytes:], end-startMsg); err != nil {
		return nil, -1, err
	}
	if end < count {
		return msgs, end, nil
	}
	return msgs, -1, nil
}

// DecodeITCHFeed parses a MoldUDP datagram into one decoded message per
// ITCH order — the deep-parsing path of §VI: the parser advances through
// the batch, extracting each application message.
func DecodeITCHFeed(data []byte) ([]*spec.Message, error) {
	count, orders, err := itchBatch(data)
	if err != nil {
		return nil, err
	}
	return decodeOrders(orders, count)
}

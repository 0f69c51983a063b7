package formats

import (
	"fmt"

	"camus/internal/packet"
	"camus/internal/spec"
)

// decodeOne parses a datagram that is exactly one header of c's spec —
// the shape of every single-report format below (and of INT). Its
// message is carved from the pooled chunks a frame's are, with no
// pointer slot beside it, so a report costs no allocation either.
func decodeOne(app string, c *packet.HeaderCodec, data []byte) (*spec.Message, error) {
	if len(data) != c.Size() {
		return nil, fmt.Errorf("formats: %s: frame is %d bytes, want %d", app, len(data), c.Size())
	}
	m, _, err := c.DecodeOne(data)
	if err != nil {
		return nil, fmt.Errorf("formats: %s: %w", app, err)
	}
	return m, nil
}

// fieldsOf resolves the named fields of c once, in the order an encoder
// passes their values to put.
func fieldsOf(c *packet.HeaderCodec, names ...string) []*packet.FieldCodec {
	fields := make([]*packet.FieldCodec, len(names))
	for i, name := range names {
		fields[i] = c.MustField(name)
	}
	return fields
}

// put writes vals[i] into fields[i] of hdr, a zeroed header, and stops at
// the first value that does not fit its field.
func put(hdr []byte, fields []*packet.FieldCodec, vals ...spec.Value) error {
	for i, x := range fields {
		if err := x.Put(hdr, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// encode returns a frame of size bytes whose leading header is written by
// put: every encoder's one allocation.
func encode(size int, fields []*packet.FieldCodec, vals ...spec.Value) ([]byte, error) {
	buf := make([]byte, size)
	if err := put(buf, fields, vals...); err != nil {
		return nil, err
	}
	return buf, nil
}

// ---------------------------------------------------------------------
// ILA — identifier-based routing (§VIII-C3). The IPv6 destination is
// split into a 64-bit locator and a 64-bit identifier (Facebook's ILA);
// services subscribe to their identifier, and migrating a service is one
// subscription update.
// ---------------------------------------------------------------------

// ILA is the identifier-locator addressing application spec.
var ILA = spec.MustParse("ila", `
header ipv6 {
    version : u4;
    traffic_class : u8;
    flow_label : u20;
    payload_len : u16;
    next_hdr : u8;
    hop_limit : u8;
    src_hi : u64;
    src_lo : u64;
    dst_locator : u64 @field;
    dst_identifier : u64 @field_exact;
}
`)

var (
	ilaCodec  = packet.MustHeaderCodec(ILA, "ipv6")
	ilaFields = fieldsOf(ilaCodec, "version", "hop_limit", "src_hi", "src_lo", "dst_locator", "dst_identifier")
)

// ILAPacket is one identifier-addressed packet.
type ILAPacket struct {
	Locator    int64
	Identifier int64
	SrcHi      int64
	SrcLo      int64
}

// Message builds the decoded form.
func (p *ILAPacket) Message() *spec.Message {
	m := spec.NewMessage(ILA)
	m.MustSet("dst_locator", spec.IntVal(p.Locator))
	m.MustSet("dst_identifier", spec.IntVal(p.Identifier))
	return m
}

// EncodeILA encodes one IPv6/ILA header.
func EncodeILA(p *ILAPacket) ([]byte, error) {
	return encode(ilaCodec.Size(), ilaFields, spec.IntVal(6), spec.IntVal(64),
		spec.IntVal(p.SrcHi), spec.IntVal(p.SrcLo), spec.IntVal(p.Locator), spec.IntVal(p.Identifier))
}

// DecodeILA parses one IPv6/ILA header.
func DecodeILA(data []byte) (*spec.Message, error) { return decodeOne("ILA", ilaCodec, data) }

// ---------------------------------------------------------------------
// hICN — video streaming with hybrid ICN (§VIII-C4). A content name is
// embedded in the address; Camus routes "hot" requests (meter above
// threshold) to the software forwarder cache and cold requests upstream.
// ---------------------------------------------------------------------

// HICN is the hybrid-ICN video streaming application spec.
var HICN = spec.MustParse("hicn", `
header hicn_request {
    name_prefix : str16 @field;
    content_id : u64 @field;
    segment : u32 @field;
    lifetime_ms : u16;
    @counter(content_meter, 10ms)
}
`)

var (
	hicnCodec  = packet.MustHeaderCodec(HICN, "hicn_request")
	hicnFields = fieldsOf(hicnCodec, "name_prefix", "content_id", "segment", "lifetime_ms")
)

// HICNRequest is one content interest packet.
type HICNRequest struct {
	NamePrefix string
	ContentID  int64
	Segment    int64
}

// Message builds the decoded form.
func (r *HICNRequest) Message() *spec.Message {
	m := spec.NewMessage(HICN)
	m.MustSet("name_prefix", spec.StrVal(r.NamePrefix))
	m.MustSet("content_id", spec.IntVal(r.ContentID))
	m.MustSet("segment", spec.IntVal(r.Segment))
	return m
}

// EncodeHICN encodes one request.
func EncodeHICN(r *HICNRequest) ([]byte, error) {
	return encode(hicnCodec.Size(), hicnFields,
		spec.StrVal(r.NamePrefix), spec.IntVal(r.ContentID), spec.IntVal(r.Segment), spec.IntVal(1000))
}

// DecodeHICN parses one request.
func DecodeHICN(data []byte) (*spec.Message, error) { return decodeOne("hICN", hicnCodec, data) }

// ---------------------------------------------------------------------
// DNS — the in-network resolver (§VIII-C5). A subscription per DNS entry
// answers queries from the switch via the custom answerDNS action.
// ---------------------------------------------------------------------

// DNS is the resolver application spec.
var DNS = spec.MustParse("dns", `
header dns_query {
    txid : u16;
    flags : u16;
    qtype : u16 @field_exact;
    name : str32 @field_exact;
}
`)

var (
	dnsCodec  = packet.MustHeaderCodec(DNS, "dns_query")
	dnsFields = fieldsOf(dnsCodec, "txid", "qtype", "name")
)

// QTypeA is the IPv4 address query type.
const QTypeA = 1

// DNSQuery is one query.
type DNSQuery struct {
	TxID  int64
	QType int64
	Name  string
}

// Message builds the decoded form.
func (q *DNSQuery) Message() *spec.Message {
	m := spec.NewMessage(DNS)
	m.MustSet("qtype", spec.IntVal(q.QType))
	m.MustSet("name", spec.StrVal(q.Name))
	return m
}

// EncodeDNS encodes one query.
func EncodeDNS(q *DNSQuery) ([]byte, error) {
	return encode(dnsCodec.Size(), dnsFields, spec.IntVal(q.TxID), spec.IntVal(q.QType), spec.StrVal(q.Name))
}

// DecodeDNS parses one query.
func DecodeDNS(data []byte) (*spec.Message, error) { return decodeOne("DNS", dnsCodec, data) }

// ---------------------------------------------------------------------
// Highway — IoT motor-highway monitoring (§VIII-C6), Linear-Road style:
// cars emit position reports; subscriptions select speeders inside
// lat/long boxes, e.g. x > 10 and x < 20 and y > 30 and y < 40 and
// spd > 55: fwd(1).
// ---------------------------------------------------------------------

// Highway is the motor-highway monitoring application spec.
var Highway = spec.MustParse("highway", `
header position_report {
    car_id : u32 @field;
    x : u16 @field;
    y : u16 @field;
    spd : u16 @field;
    dir : u8;
    highway : u8 @field;
    lane : u8;
}
`)

var (
	highwayCodec  = packet.MustHeaderCodec(Highway, "position_report")
	highwayFields = fieldsOf(highwayCodec, "car_id", "x", "y", "spd", "highway")
)

// PositionReport is one car position report (10 per second per car).
type PositionReport struct {
	CarID   int64
	X, Y    int64
	Speed   int64
	Highway int64
}

// Message builds the decoded form.
func (p *PositionReport) Message() *spec.Message {
	m := spec.NewMessage(Highway)
	m.MustSet("car_id", spec.IntVal(p.CarID))
	m.MustSet("x", spec.IntVal(p.X))
	m.MustSet("y", spec.IntVal(p.Y))
	m.MustSet("spd", spec.IntVal(p.Speed))
	m.MustSet("highway", spec.IntVal(p.Highway))
	return m
}

// EncodeHighway encodes one report.
func EncodeHighway(p *PositionReport) ([]byte, error) {
	return encode(highwayCodec.Size(), highwayFields,
		spec.IntVal(p.CarID), spec.IntVal(p.X), spec.IntVal(p.Y), spec.IntVal(p.Speed), spec.IntVal(p.Highway))
}

// DecodeHighway parses one report.
func DecodeHighway(data []byte) (*spec.Message, error) {
	return decodeOne("highway", highwayCodec, data)
}

// ---------------------------------------------------------------------
// Kafka shim — API-compatible pub/sub replacement (§VIII-C7): topic-keyed
// messages up to 512 bytes routed by the switch instead of broker
// servers. Topic matching supports prefixes (hierarchical topics).
// ---------------------------------------------------------------------

// Kafka is the pub/sub shim application spec.
var Kafka = spec.MustParse("kafka", `
header kafka_msg {
    topic : str32 @field;
    partition : u16 @field;
    key_hash : u32 @field;
    payload_len : u16;
}
`)

var (
	kafkaCodec      = packet.MustHeaderCodec(Kafka, "kafka_msg")
	kafkaPayloadLen = kafkaCodec.MustField("payload_len")
	kafkaFields     = fieldsOf(kafkaCodec, "topic", "partition", "key_hash", "payload_len")
)

// KafkaMaxPayload is the shim's message size limit (§VIII-C7: 512 bytes,
// the typical JSON message size, within the MTU).
const KafkaMaxPayload = 512

// KafkaMessage is one pub/sub message.
type KafkaMessage struct {
	Topic     string
	Partition int64
	KeyHash   int64
	Payload   []byte
}

// Message builds the decoded form.
func (k *KafkaMessage) Message() *spec.Message {
	m := spec.NewMessage(Kafka)
	m.MustSet("topic", spec.StrVal(k.Topic))
	m.MustSet("partition", spec.IntVal(k.Partition))
	m.MustSet("key_hash", spec.IntVal(k.KeyHash))
	return m
}

// EncodeKafka encodes one message (header + payload).
func EncodeKafka(k *KafkaMessage) ([]byte, error) {
	if len(k.Payload) > KafkaMaxPayload {
		return nil, fmt.Errorf("formats: kafka payload %d exceeds %d-byte shim limit",
			len(k.Payload), KafkaMaxPayload)
	}
	buf, err := encode(kafkaCodec.Size()+len(k.Payload), kafkaFields,
		spec.StrVal(k.Topic), spec.IntVal(k.Partition), spec.IntVal(k.KeyHash), spec.IntVal(int64(len(k.Payload))))
	if err != nil {
		return nil, err
	}
	copy(buf[kafkaCodec.Size():], k.Payload)
	return buf, nil
}

// DecodeKafka parses one message, returning the payload too.
func DecodeKafka(data []byte) (*spec.Message, []byte, error) {
	size := kafkaCodec.Size()
	if len(data) < size {
		return nil, nil, fmt.Errorf("formats: kafka: frame is %d bytes, header needs %d", len(data), size)
	}
	n := int(kafkaPayloadLen.Uint(data))
	if n > KafkaMaxPayload {
		return nil, nil, fmt.Errorf("formats: kafka: payload_len %d exceeds %d-byte shim limit", n, KafkaMaxPayload)
	}
	if n != len(data)-size {
		return nil, nil, fmt.Errorf("formats: kafka: payload_len %d, frame carries %d", n, len(data)-size)
	}
	m, err := decodeOne("kafka", kafkaCodec, data[:size])
	if err != nil {
		return nil, nil, err
	}
	return m, data[size:], nil
}

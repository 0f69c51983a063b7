package formats

import (
	"camus/internal/packet"
	"camus/internal/spec"
)

// INT is the in-band network telemetry analytics application (§VIII-C2):
// each report carries per-hop metadata; subscriptions select anomalous
// events, e.g. "int.switch_id == 2 and int.hop_latency > 100" (§VIII-E2).
var INT = spec.MustParse("int", `
header int_report {
    version : u4;
    hop_count : u4;
    flow_id : u32 @field;
    switch_id : u32 @field;
    hop_latency : u32 @field;
    queue_depth : u32 @field;
    egress_port : u16 @field;
    ingress_tstamp : u64;
}
`)

var (
	intCodec  = packet.MustHeaderCodec(INT, "int_report")
	intFields = fieldsOf(intCodec, "version", "hop_count", "flow_id", "switch_id",
		"hop_latency", "queue_depth", "egress_port", "ingress_tstamp")
)

// INTReportBytes is the wire size of one telemetry report.
var INTReportBytes = intCodec.Size()

// INTReport is one telemetry event.
type INTReport struct {
	FlowID     int64
	SwitchID   int64
	HopLatency int64
	QueueDepth int64
	EgressPort int64
	TstampNS   int64
}

// Message builds the decoded form.
func (r *INTReport) Message() *spec.Message {
	m := spec.NewMessage(INT)
	r.FillMessage(m)
	return m
}

// FillMessage populates a caller-owned message.
func (r *INTReport) FillMessage(m *spec.Message) {
	m.Reset()
	m.MustSet("flow_id", spec.IntVal(r.FlowID))
	m.MustSet("switch_id", spec.IntVal(r.SwitchID))
	m.MustSet("hop_latency", spec.IntVal(r.HopLatency))
	m.MustSet("queue_depth", spec.IntVal(r.QueueDepth))
	m.MustSet("egress_port", spec.IntVal(r.EgressPort))
}

// EncodeINT encodes one report.
func EncodeINT(r *INTReport) ([]byte, error) {
	return encode(INTReportBytes, intFields, spec.IntVal(1), spec.IntVal(1), spec.IntVal(r.FlowID), spec.IntVal(r.SwitchID),
		spec.IntVal(r.HopLatency), spec.IntVal(r.QueueDepth), spec.IntVal(r.EgressPort), spec.IntVal(r.TstampNS))
}

// DecodeINT parses one report.
func DecodeINT(data []byte) (*spec.Message, error) { return decodeOne("INT", intCodec, data) }

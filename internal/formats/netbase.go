// Package formats defines the message formats of the paper's eight
// applications (§VIII-C): the spec (the user-provided annotated header
// specification of Fig. 4), wire codecs, and typed builders for each.
//
// Each application spec contains only its own headers; a switch hosting
// several applications merges their specs (spec.Merge), which is how the
// co-existence experiments (§VIII-D) are assembled.
package formats

import (
	"camus/internal/packet"
	"camus/internal/spec"
)

// NetBase is the traditional L2/L3/L4 stack. It doubles as the
// "Traditional IP" application (§VIII-C8): packet subscriptions on
// ipv4.dst generalize ordinary forwarding rules.
var NetBase = spec.MustParse("netbase", `
header ethernet {
    dst_mac : u48;
    src_mac : u48;
    ethertype : u16;
}
header ipv4 {
    version : u4;
    ihl : u4;
    tos : u8;
    total_len : u16;
    ident : u16;
    flags : u3;
    frag_off : u13;
    ttl : u8;
    proto : u8 @field_exact;
    checksum : u16;
    src : u32 @field;
    dst : u32 @field;
}
header udp {
    sport : u16;
    dport : u16 @field;
    length : u16;
    checksum : u16;
}
`)

// Codecs for the base headers.
var (
	EthernetCodec = packet.MustHeaderCodec(NetBase, "ethernet")
	IPv4Codec     = packet.MustHeaderCodec(NetBase, "ipv4")
	UDPCodec      = packet.MustHeaderCodec(NetBase, "udp")
)

// The fields EncodeFrame writes.
var (
	ethernetFields = fieldsOf(EthernetCodec, "ethertype")
	ipv4Fields     = fieldsOf(IPv4Codec, "version", "ihl", "total_len", "ttl", "proto", "src", "dst")
	udpFields      = fieldsOf(UDPCodec, "sport", "dport", "length")
)

// FrameOverheadBytes is the L2+L3+L4 framing cost charged to every
// application packet in traffic accounting.
const FrameOverheadBytes = 14 + 20 + 8

// IPv4 converts a dotted-quad-style tuple to the uint32 wire value.
func IPv4(a, b, c, d int) int64 {
	return int64(a)<<24 | int64(b)<<16 | int64(c)<<8 | int64(d)
}

// EncodeFrame prepends Ethernet+IPv4+UDP headers to an application
// payload: the wire form used by feed generators.
func EncodeFrame(src, dst int64, sport, dport int, payload []byte) ([]byte, error) {
	buf, err := encode(FrameOverheadBytes+len(payload), ethernetFields, spec.IntVal(0x0800))
	if err != nil {
		return nil, err
	}
	ip := buf[EthernetCodec.Size():]
	if err := put(ip, ipv4Fields, spec.IntVal(4), spec.IntVal(5), spec.IntVal(int64(20+8+len(payload))),
		spec.IntVal(64), spec.IntVal(17), spec.IntVal(src), spec.IntVal(dst)); err != nil {
		return nil, err
	}
	udp := ip[IPv4Codec.Size():]
	if err := put(udp, udpFields, spec.IntVal(int64(sport)), spec.IntVal(int64(dport)), spec.IntVal(int64(8+len(payload)))); err != nil {
		return nil, err
	}
	copy(buf[FrameOverheadBytes:], payload)
	return buf, nil
}

// DecodeFrame parses the base stack into m and returns the payload.
func DecodeFrame(data []byte, m *spec.Message) ([]byte, error) {
	rest, err := EthernetCodec.Decode(data, m)
	if err != nil {
		return nil, err
	}
	rest, err = IPv4Codec.Decode(rest, m)
	if err != nil {
		return nil, err
	}
	return UDPCodec.Decode(rest, m)
}

package pipeline

import (
	"math/rand"
	"testing"

	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// TestProcessBytes runs the full dataplane path on wire bytes: MoldUDP
// batch → parser → pipeline → per-port pruned replicas.
func TestProcessBytes(t *testing.T) {
	rules, err := subscription.NewParser(formats.ITCH).ParseRules(`
stock == GOOGL: fwd(1)
stock == MSFT: fwd(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(formats.ITCH, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := compiler.GenerateStatic(formats.ITCH, compiler.StaticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch("wire", static, prog)
	if err != nil {
		t.Fatal(err)
	}

	// No parser installed → error.
	if _, err := sw.ProcessBytes([]byte{1, 2, 3}, 0, 0); err == nil {
		t.Fatal("ProcessBytes without parser succeeded")
	}
	sw.SetParser(ParserFunc(func(data []byte) ([]*spec.Message, error) {
		return formats.DecodeITCHFeed(data)
	}))

	wire, err := formats.EncodeITCHFeed("S", 1, []*formats.Order{
		{Stock: "GOOGL", Price: 10, Shares: 1},
		{Stock: "MSFT", Price: 20, Shares: 2},
		{Stock: "ZZZ", Price: 30, Shares: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.ProcessBytes(wire, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("deliveries = %+v", out)
	}
	if out[0].Port != 1 || len(out[0].Msgs) != 1 {
		t.Errorf("port 1 replica: %+v", out[0])
	}
	if v, _ := out[0].Msgs[0].GetRef("stock"); v.Str != "GOOGL" {
		t.Errorf("port 1 got %q", v.Str)
	}
	if out[1].Port != 2 || len(out[1].Msgs) != 1 {
		t.Errorf("port 2 replica: %+v", out[1])
	}

	// Every malformed frame is an error, delivers nothing, and counts
	// one ParseErrors.
	withCount := func(hi, lo byte) []byte {
		f := append([]byte(nil), wire...)
		f[18], f[19] = hi, lo // moldudp.count
		return f
	}
	random := make([]byte, len(wire))
	rand.New(rand.NewSource(3)).Read(random)
	malformed := [][]byte{
		{},
		{0xFF},
		wire[:20],                           // header only
		wire[:len(wire)-1],                  // last order cut
		withCount(0, 4),                     // count larger than the payload
		withCount(0, 2),                     // count smaller than the payload
		withCount(0x04, 0x01),               // count > 1024
		append(withCount(0, 3), 0xDE, 0xAD), // trailing garbage
		random,
	}
	before := sw.Stats()
	for i, frame := range malformed {
		out, err := sw.ProcessBytes(frame[:len(frame):len(frame)], 0, 0)
		if err == nil || out != nil {
			t.Errorf("malformed frame %d (%d bytes): deliveries %v, err %v", i, len(frame), out, err)
		}
	}
	after := sw.Stats()
	if got := after.ParseErrors - before.ParseErrors; got != int64(len(malformed)) {
		t.Errorf("ParseErrors rose by %d over %d malformed frames", got, len(malformed))
	}
	if after.Packets != before.Packets {
		t.Errorf("malformed frames counted as %d packets", after.Packets-before.Packets)
	}
}

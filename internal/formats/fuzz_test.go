package formats

import "testing"

// FuzzDecodeITCH feeds arbitrary bytes to the batched ITCH decoder: it
// must reject or accept without panicking, and accept only a datagram
// that is exactly its header plus the declared count of orders, which
// it returns one message each.
func FuzzDecodeITCH(f *testing.F) {
	good, _ := EncodeITCHFeed("SESSION", 7, []*Order{
		{Stock: "GOOGL", Price: 50, Shares: 100},
		{Stock: "MSFT", Price: 10, Shares: 5},
	})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add(good[:len(good)-3])
	f.Add(good[:moldCodec.Size()])                                               // header only, count 2
	f.Add(append(append([]byte(nil), good...), 0xDE, 0xAD))                      // trailing garbage
	f.Add(append(append([]byte(nil), good[:moldCodec.Size()-2]...), 0x04, 0x01)) // count 1025
	f.Add(append(append([]byte(nil), good[:moldCodec.Size()-2]...), 0x00, 0x03)) // count 3, no orders
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := DecodeITCHFeed(data)
		if err != nil {
			return
		}
		if count := int(moldCount.Uint(data)); len(msgs) != count || len(data) != moldCodec.Size()+count*ITCHOrderBytes {
			t.Fatalf("%d bytes decoded to %d messages, header count %d", len(data), len(msgs), count)
		}
		for _, m := range msgs {
			if m == nil {
				t.Fatal("nil message from successful decode")
			}
			if !m.HeaderPresent("itch_order") {
				t.Fatal("decoded message missing header validity")
			}
		}
	})
}

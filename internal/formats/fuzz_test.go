package formats

import (
	"math"
	"testing"
)

// FuzzDecodeITCH feeds arbitrary bytes to the batched ITCH decoder: it
// must reject or accept without panicking, and accept only a datagram
// that is exactly its header plus the declared count of orders, which
// it returns one message each. The budgeted pass over the same bytes,
// from a fuzzed start with a fuzzed budget, must fail exactly when the
// one-shot decode does, and otherwise return the one-shot messages from
// start on, at most budget of them (all when the budget is not positive).
func FuzzDecodeITCH(f *testing.F) {
	good, _ := EncodeITCHFeed("SESSION", 7, []*Order{
		{Stock: "GOOGL", Price: 50, Shares: 100},
		{Stock: "MSFT", Price: 10, Shares: 5},
	})
	f.Add(good, 0, 0)
	f.Add(good, 1, math.MaxInt)
	f.Add(good, 1, 1)
	f.Add(good, -1, 1)
	f.Add([]byte{}, 0, 0)
	f.Add([]byte{0xFF, 0x00, 0x01}, 0, 0)
	f.Add(good[:len(good)-3], 0, 0)
	f.Add(good[:moldCodec.Size()], 0, 0)                                               // header only, count 2
	f.Add(append(append([]byte(nil), good...), 0xDE, 0xAD), 0, 0)                      // trailing garbage
	f.Add(append(append([]byte(nil), good[:moldCodec.Size()-2]...), 0x04, 0x01), 0, 0) // count 1025
	f.Add(append(append([]byte(nil), good[:moldCodec.Size()-2]...), 0x00, 0x03), 0, 0) // count 3, no orders
	f.Fuzz(func(t *testing.T, data []byte, startMsg, maxMsgs int) {
		msgs, err := DecodeITCHFeed(data)
		pass, next, passErr := DecodeITCHPass(data, startMsg, maxMsgs)
		if (err == nil) != (passErr == nil) {
			t.Fatalf("feed error %v, pass error %v", err, passErr)
		}
		if err != nil {
			return
		}
		count := int(moldCount.Uint(data))
		if len(msgs) != count || len(data) != moldCodec.Size()+count*ITCHOrderBytes {
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
		var want []string
		wantNext := -1
		if startMsg >= 0 && startMsg < count {
			end := count
			if maxMsgs > 0 && maxMsgs < count-startMsg {
				end, wantNext = startMsg+maxMsgs, startMsg+maxMsgs
			}
			for _, m := range msgs[startMsg:end] {
				want = append(want, m.String())
			}
		}
		if len(pass) != len(want) || next != wantNext {
			t.Fatalf("pass(%d, %d) of %d: %d messages, next %d; want %d, next %d",
				startMsg, maxMsgs, count, len(pass), next, len(want), wantNext)
		}
		for i, m := range pass {
			if m.String() != want[i] {
				t.Fatalf("pass(%d, %d) message %d: %v, want %v", startMsg, maxMsgs, i, m, want[i])
			}
		}
	})
}

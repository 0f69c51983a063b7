package bdd

import (
	"encoding/binary"
	"testing"
)

// tableOp is one step of a table exercise: put (a, b, c) → v, or (get) look
// the key up. Ten bytes on the fuzzer's wire: opcode, padding, three
// int16 key words — sign-extended, so the or-memo's ctx = −1 is reachable —
// and a uint16 value.
type tableOp struct {
	get     bool
	a, b, c int32
	v       int32
}

func (op tableOp) append(buf []byte) []byte {
	buf = append(buf, 0, 0)
	if op.get {
		buf[len(buf)-2] = 1
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(op.a))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(op.b))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(op.c))
	return binary.LittleEndian.AppendUint16(buf, uint16(op.v))
}

func decodeTableOps(data []byte) []tableOp {
	var ops []tableOp
	for ; len(data) >= 10; data = data[10:] {
		word := func(i int) int32 { return int32(int16(binary.LittleEndian.Uint16(data[i:]))) }
		ops = append(ops, tableOp{
			get: data[0]&1 == 1,
			a:   word(2), b: word(4), c: word(6),
			v: int32(binary.LittleEndian.Uint16(data[8:])),
		})
	}
	return ops
}

// runTableOps applies ops to a table and to a Go map and holds the table to
// the map after every step and, exhaustively, at the end.
func runTableOps(t *testing.T, ops []tableOp) {
	t.Helper()
	var tab table
	oracle := make(map[[3]int32]int32)
	for i, op := range ops {
		key := [3]int32{op.a, op.b, op.c}
		if !op.get {
			tab.put(op.a, op.b, op.c, op.v)
			oracle[key] = op.v
		}
		want, present := oracle[key]
		if got, ok := tab.get(op.a, op.b, op.c); ok != present || got != want {
			t.Fatalf("op %d: get%v = %d, %v; want %d, %v", i, key, got, ok, want, present)
		}
		if tab.len() != len(oracle) {
			t.Fatalf("op %d: len %d, want %d", i, tab.len(), len(oracle))
		}
		if 4*tab.len() > 3*len(tab.slots) {
			t.Fatalf("op %d: %d entries in %d slots: over three-quarters load", i, tab.len(), len(tab.slots))
		}
	}
	for key, want := range oracle {
		if got, ok := tab.get(key[0], key[1], key[2]); !ok || got != want {
			t.Fatalf("final: get%v = %d, %v; want %d", key, got, ok, want)
		}
		// Neighbours of a stored key share most of its words; absent ones
		// must stay absent.
		for _, near := range [][3]int32{{key[0] + 1, key[1], key[2]}, {key[0], key[2], key[1]}, {key[0], key[1], ^key[2]}} {
			if _, present := oracle[near]; present {
				continue
			}
			if got, ok := tab.get(near[0], near[1], near[2]); ok {
				t.Fatalf("final: absent key %v found with value %d", near, got)
			}
		}
	}
}

// collidingKeys returns n keys (a, 0, c) whose hashes have the given top
// bits — one home slot in a table of 2^bits slots, and in every smaller
// one — so that they form a single probe run.
func collidingKeys(n int, bits uint, home uint64, c int32) [][3]int32 {
	var keys [][3]int32
	for a := int32(0); len(keys) < n; a++ {
		if hash3(a, 0, c)>>(64-bits) == home {
			keys = append(keys, [3]int32{a, 0, c})
		}
	}
	return keys
}

func tableSeeds() [][]tableOp {
	var seeds [][]tableOp
	// One probe run of colliding hashes, long enough that the table grows
	// (at 49 entries, from 64 slots to 128) in the middle of it; then
	// every key is read back, and overwritten. The second run starts in
	// the table's last slot, whatever its size, and wraps around.
	for _, run := range []struct {
		home uint64
		c    int32
	}{{home: 0x5a, c: 0}, {home: 0xff, c: noCtx}} {
		var ops []tableOp
		keys := collidingKeys(60, 8, run.home, run.c)
		for i, k := range keys {
			ops = append(ops, tableOp{a: k[0], b: k[1], c: k[2], v: int32(i)})
		}
		for i, k := range keys {
			ops = append(ops, tableOp{get: true, a: k[0], b: k[1], c: k[2]})
			ops = append(ops, tableOp{a: k[0], b: k[1], c: k[2], v: int32(1000 + i)})
		}
		seeds = append(seeds, ops)
	}
	// The builder's key shapes: sequential node IDs under ctx −1 and under
	// small contexts, value 0 (a found entry, not an empty slot), gets of
	// keys never stored, and enough entries for several doublings.
	var ops []tableOp
	for i := int32(0); i < 600; i++ {
		ops = append(ops,
			tableOp{a: i, b: i + 1, c: noCtx, v: 0},
			tableOp{a: i + 1, b: i, c: i % 7, v: i},
			tableOp{get: true, a: i, b: i, c: noCtx})
	}
	return append(seeds, ops)
}

func TestTable(t *testing.T) {
	for _, ops := range tableSeeds() {
		runTableOps(t, ops)
	}
	var empty table
	if _, ok := empty.get(0, 0, 0); ok || empty.len() != 0 || empty.bytes() != 0 {
		t.Error("zero table is not empty")
	}
}

// FuzzTable runs put/get/grow sequences against a Go-map oracle.
func FuzzTable(f *testing.F) {
	for _, ops := range tableSeeds() {
		var buf []byte
		for _, op := range ops {
			buf = op.append(buf)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runTableOps(t, decodeTableOps(data))
	})
}

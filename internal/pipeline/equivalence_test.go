package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// equivBatch is one ProcessBatch call of an equivalence case: the
// reference switch takes the same packets one Process call at a time.
type equivBatch struct {
	now  time.Duration
	pkts []*Packet
}

const dnsSpecSrc = `
header dns_query {
    name : str16 @field;
}
`

// batchBy runs pkts as workers goroutines batching on sw at once, each
// into a Results of its own: the concurrency the switch promises its
// callers, who take turns on its lock. A flow's packets stay with one
// worker, in order; flow-less packets are dealt round-robin. One worker
// is a plain ProcessBatch.
func batchBy(sw *Switch, pkts []*Packet, now time.Duration, workers int) [][]Delivery {
	if workers <= 1 {
		return sw.ProcessBatch(pkts, now)
	}
	share := make([][]int, workers)
	rr := 0
	for i, p := range pkts {
		w := rr
		if p.Flow != 0 {
			w = int(uint64(p.Flow) % uint64(workers))
		} else {
			rr = (rr + 1) % workers
		}
		share[w] = append(share[w], i)
	}
	out := make([][]Delivery, len(pkts))
	var wg sync.WaitGroup
	for _, idxs := range share {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]*Packet, len(idxs))
			for j, i := range idxs {
				mine[j] = pkts[i]
			}
			for j, ds := range sw.ProcessBatchInto(new(Results), mine, now) {
				out[idxs[j]] = ds
			}
		}()
	}
	wg.Wait()
	return out
}

// TestProcessBatchMatchesProcess: Process and ProcessBatch are one core
// behind two emit targets, so over every kind of packet the core serves
// they must produce identical deliveries and identical Stats — with the
// batch driven by one worker goroutine and by four (batchBy).
//
// With four workers a batch's flow-less packets run in several
// concurrent calls, so the stateful case keeps every register crossing
// between batches, never inside one.
func TestProcessBatchMatchesProcess(t *testing.T) {
	itch := func(sp *spec.Spec, n int, stock string, price, shares int64) []*spec.Message {
		ms := make([]*spec.Message, n)
		for i := range ms {
			ms[i] = itchMsg(sp, stock, price+int64(i), shares)
		}
		return ms
	}
	cases := []struct {
		name    string
		specSrc string
		rules   string
		copts   compiler.Options
		traffic func(sp *spec.Spec) []equivBatch
		// wantPorts, when set, is the egress port list of each packet of
		// every batch.
		wantPorts [][]int
	}{
		{
			name:    "stateless",
			specSrc: itchSpecSrc,
			rules: `
stock == GOOGL: fwd(1)
stock == MSFT and price > 100: fwd(2)
price > 500: fwd(3)
shares > 900: fwd(4)
`,
			traffic: func(sp *spec.Spec) []equivBatch {
				syms := []string{"GOOGL", "MSFT", "AAPL", "INTC", "TSLA"}
				var b equivBatch
				for i := 0; i < 300; i++ {
					b.pkts = append(b.pkts, &Packet{In: i % 5, Bytes: 80, Msgs: []*spec.Message{
						itchMsg(sp, syms[i%len(syms)], int64(i*13%1200), int64(i*31%1000)),
						itchMsg(sp, syms[(i+1)%len(syms)], int64(i*7%1200), 10),
					}})
				}
				return []equivBatch{b, b}
			},
		},
		{
			name:    "stateful-window",
			specSrc: itchSpecSrc,
			rules:   "stock == GOOGL and sum(shares, 1ms) > 100: fwd(1)\nstock == MSFT: fwd(2)",
			copts:   compiler.Options{LastHop: true},
			traffic: func(sp *spec.Spec) []equivBatch {
				mk := func(now time.Duration, n int, shares int64) equivBatch {
					b := equivBatch{now: now}
					for i := 0; i < n; i++ {
						b.pkts = append(b.pkts,
							&Packet{In: 0, Bytes: 40, Msgs: itch(sp, 1, "GOOGL", 50, shares)},
							&Packet{In: 0, Bytes: 40, Msgs: itch(sp, 1, "MSFT", 50, shares)})
					}
					return b
				}
				return []equivBatch{
					mk(0, 8, 10),                       // sum climbs to 80: none forward
					mk(100*time.Microsecond, 1, 1000),  // reads 80, writes 1080
					mk(200*time.Microsecond, 8, 1),     // all read > 100: all forward
					mk(2500*time.Microsecond, 8, 1),    // window tumbled: none forward
					mk(2600*time.Microsecond, 1, 1000), // and crosses again
					mk(2700*time.Microsecond, 8, 1),
				}
			},
		},
		{
			name:    "custom-action",
			specSrc: dnsSpecSrc,
			rules:   "name == h105: answerDNS(10.0.0.105)\nname == h105: fwd(2)\nname == h106: answerDNS(10.0.0.106)",
			traffic: func(sp *spec.Spec) []equivBatch {
				var b equivBatch
				for i, name := range []string{"h105", "h106", "h107", "h105"} {
					m := spec.NewMessage(sp)
					m.MustSet("name", spec.StrVal(name))
					b.pkts = append(b.pkts, &Packet{In: 3 + i, Bytes: 30, Msgs: []*spec.Message{m}})
				}
				return []equivBatch{b, b}
			},
		},
		{
			name:    "stream",
			specSrc: itchSpecSrc,
			rules:   "stock == GOOGL: fwd(1)\nstock == GOOGL: fwd(2)",
			traffic: func(sp *spec.Spec) []equivBatch {
				var heads, conts equivBatch
				conts.now = time.Millisecond
				for f := FlowKey(1); f <= 40; f++ {
					stock := "GOOGL"
					if f%4 == 0 {
						stock = "MSFT" // a cached drop decision
					}
					heads.pkts = append(heads.pkts,
						&Packet{In: 0, Flow: f, Bytes: 60, Msgs: itch(sp, 1, stock, 50, 1)},
						&Packet{In: 0, Flow: f, Bytes: 1400}) // continuation in the head's batch
					conts.pkts = append(conts.pkts,
						&Packet{In: int(f % 3), Flow: f, Bytes: 1400}, // In 1, 2: ingress suppression
						&Packet{In: 0, Flow: f + 1000, Bytes: 1400})   // never installed: miss
				}
				expired := equivBatch{now: time.Hour, pkts: conts.pkts}
				return []equivBatch{heads, conts, expired}
			},
		},
		{
			name:    "recirculating",
			specSrc: itchSpecSrc,
			rules:   "stock == GOOGL: fwd(1)\nprice > 55: fwd(2)",
			traffic: func(sp *spec.Spec) []equivBatch {
				var b equivBatch
				for _, n := range []int{1, 4, 5, 10, 17} { // parse budget is 4
					b.pkts = append(b.pkts, &Packet{In: 0, Bytes: 40 * n, Msgs: itch(sp, n, "GOOGL", 50, 1)})
				}
				return []equivBatch{b}
			},
		},
		{
			// A rule refining a broader one on a wide string field: a
			// packet in the overlap goes to both ports, however often the
			// broader outcome was served for the same stock and price
			// just before.
			name: "refinement-overlap",
			specSrc: `
header market {
    stock : str8 @field_exact;
    price : u32 @field;
    name : str16 @field;
}
`,
			rules: "stock == GOOGL: fwd(1)\nstock == GOOGL and name == SPECIALISSUE: fwd(2)",
			traffic: func(sp *spec.Spec) []equivBatch {
				var b equivBatch
				for _, name := range []string{"ORDINARY", "ORDINARY", "SPECIALISSUE", "ORDINARY"} {
					m := spec.NewMessage(sp)
					m.MustSet("stock", spec.StrVal("GOOGL"))
					m.MustSet("price", spec.IntVal(50))
					m.MustSet("name", spec.StrVal(name))
					b.pkts = append(b.pkts, &Packet{In: 9, Bytes: 30, Msgs: []*spec.Message{m}})
				}
				return []equivBatch{b, b}
			},
			wantPorts: [][]int{{1}, {1}, {1, 2}, {1}},
		},
		{
			name:    "empty",
			specSrc: itchSpecSrc,
			rules:   "stock == GOOGL: fwd(1)",
			traffic: func(sp *spec.Spec) []equivBatch {
				return []equivBatch{
					{}, // an empty batch
					{pkts: []*Packet{{In: 0}, {In: 1, Bytes: 9}, {In: 0, Msgs: itch(sp, 1, "GOOGL", 1, 1)}}},
					{pkts: []*Packet{{In: 0}}},
				}
			},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				sp := spec.MustParse("equiv", tc.specSrc)
				rules, err := subscription.NewParser(sp).ParseRules(tc.rules)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := compiler.Compile(sp, rules, tc.copts)
				if err != nil {
					t.Fatal(err)
				}
				static, err := compiler.GenerateStatic(sp, compiler.StaticOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mk := func() *Switch {
					sw, err := NewSwitch("s", static, prog)
					if err != nil {
						t.Fatal(err)
					}
					sw.HandleCustom("answerDNS", func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery {
						return []Delivery{{Port: pkt.In, Msgs: []*spec.Message{m}}}
					})
					return sw
				}
				ref, sw := mk(), mk()
				for bi, b := range tc.traffic(sp) {
					got := batchBy(sw, b.pkts, b.now, workers)
					if len(got) != len(b.pkts) {
						t.Fatalf("batch %d: %d results for %d packets", bi, len(got), len(b.pkts))
					}
					for i, p := range b.pkts {
						if want := ref.Process(p, b.now); !reflect.DeepEqual(got[i], want) {
							t.Fatalf("batch %d pkt %d: ProcessBatch %+v != Process %+v", bi, i, got[i], want)
						}
						if tc.wantPorts == nil {
							continue
						}
						var ports []int
						for _, d := range got[i] {
							ports = append(ports, d.Port)
						}
						if !reflect.DeepEqual(ports, tc.wantPorts[i]) {
							t.Fatalf("batch %d pkt %d: delivered to ports %v, want %v", bi, i, ports, tc.wantPorts[i])
						}
					}
				}
				got, want := sw.Stats(), ref.Stats()
				if got != want {
					t.Fatalf("Stats diverge:\nProcessBatch %+v\nProcess      %+v", got, want)
				}
				if want.Packets == 0 || (tc.name != "empty" && want.Deliveries == 0) {
					t.Fatalf("case exercised nothing: %+v", want)
				}
			})
		}
	}
}

// TestProcessBatchZeroAlloc pins the workspace invariant: the
// steady-state batch allocates nothing per op — on a
// stateless program, on a stateful one whose register reads and writes go
// through the shared StateTable, on multi-message packets whose messages
// fan out to several ports each, and on streams whose header packets
// install decisions.
func TestProcessBatchZeroAlloc(t *testing.T) {
	const stateless = `
stock == GOOGL: fwd(1)
stock == MSFT and price > 100: fwd(2)
price > 500: fwd(3)
`
	for _, tc := range []struct {
		name  string
		rules string
		copts compiler.Options
		// msgs is the message count of packet i.
		msgs func(i int) int
		// flows: packets come in stream pairs, a header-bearing packet of
		// two messages on four ports, then a continuation. The stream's
		// decision is the packet's union mask, copied into the flow
		// cache's slab: no allocation per header-bearing packet or per
		// continuation.
		flows bool
	}{
		{name: "stateless", rules: stateless},
		{name: "stateful", rules: stateless + "stock == GOOGL and avg(price, 100us) > 60: fwd(4)\n",
			copts: compiler.Options{LastHop: true}},
		{name: "fanout", rules: stateless + "stock == GOOGL: fwd(5)\nshares > 5: fwd(6)\nshares > 5: fwd(7)\n",
			msgs: func(i int) int { return 1 + i%8 }},
		{name: "flows", rules: stateless + "shares > 5: fwd(4)\n", flows: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, sp := buildSwitch(t, tc.rules, tc.copts)
			syms := []string{"GOOGL", "MSFT", "AAPL", "INTC"}
			pkts := make([]*Packet, 256)
			for i := range pkts {
				if tc.flows {
					pkts[i] = &Packet{In: 0, Bytes: 64, Flow: FlowKey(1 + i/2)}
					if i%2 == 0 {
						pkts[i].Msgs = []*spec.Message{itchMsg(sp, "GOOGL", 600, 10), itchMsg(sp, "MSFT", 200, 10)}
					}
					continue
				}
				n := 1
				if tc.msgs != nil {
					n = tc.msgs(i)
				}
				msgs := make([]*spec.Message, n)
				for j := range msgs {
					msgs[j] = itchMsg(sp, syms[(i+j)%len(syms)], int64(50+(i+j)*7%1000), 10)
				}
				pkts[i] = &Packet{In: 0, Msgs: msgs, Bytes: 64 * n}
			}
			now := time.Duration(0)
			sw.ProcessBatch(pkts, now) // warm the arenas
			allocs := testing.AllocsPerRun(20, func() {
				now += 30 * time.Microsecond // windows tumble every few runs
				sw.ProcessBatch(pkts, now)
			})
			if allocs != 0 {
				t.Fatalf("batch allocates %.1f allocs/op, want 0", allocs)
			}
			if st := sw.Stats(); tc.flows && (st.FlowHits != st.Packets/2 || st.Deliveries != 4*st.Packets) {
				t.Fatalf("stream run did not cache its four-port decisions: %+v", st)
			}
			st := sw.Stats()
			if tc.copts.LastHop && (st.StateUpdates == 0 || st.Deliveries == 0) {
				t.Fatalf("stateful run never touched a register or delivered: %+v", st)
			}
			if tc.msgs != nil && (st.Messages <= st.Packets || st.Deliveries < 2*st.Packets) {
				t.Fatalf("fan-out run did not fan out: %+v", st)
			}
		})
	}
}

package pipeline

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// customPort is where the egress tests' custom handler sends its reply.
const customPort = 1 << 20

// egressStep is one step of an egress case: a ProcessBatch of pkts at
// now, or, when install is set, an Install of that program.
type egressStep struct {
	now     time.Duration
	pkts    []*Packet
	install *compiler.Program
}

// refSwitch is the reference the packet core's egress is checked against.
// Its deliveries come from Program.Eval per message alone: one replica
// per matched port, ports ascending, each holding the messages that
// matched on it in wire order, the ingress port removed. Lookup serves
// only to feed the reference's own registers the leaf's Updates, which
// Eval does not report.
type refSwitch struct {
	prog  *compiler.Program
	state *StateTable
	drop  bool
	// flows is each stream's port union under prog; Install empties it.
	flows          map[FlowKey][]int
	hits, misses   int64
	deliveries     int64
	reached        map[int]bool // ports some delivery went to
	customsHandled bool
}

func newRefSwitch(prog *compiler.Program, drop bool) *refSwitch {
	r := &refSwitch{drop: drop, reached: map[int]bool{}}
	r.install(prog)
	return r
}

func (r *refSwitch) install(prog *compiler.Program) {
	r.prog, r.state, r.flows = prog, NewStateTable(prog), map[FlowKey][]int{}
}

func (r *refSwitch) packet(pkt *Packet, now time.Duration) []Delivery {
	byPort := map[int][]*spec.Message{}
	var extra []Delivery
	if len(pkt.Msgs) == 0 && pkt.Flow != 0 {
		ports, ok := r.flows[pkt.Flow]
		if !ok {
			r.misses++
			return nil
		}
		r.hits++
		for _, p := range ports {
			byPort[p] = nil
		}
	}
	for _, m := range pkt.Msgs {
		acts := r.prog.Eval(m, r.state.At(now))
		if le := r.prog.Lookup(m, r.state.At(now)); le != nil {
			for _, key := range le.Updates {
				r.state.update(key, m, now)
			}
		}
		for _, p := range acts.Ports {
			byPort[p] = append(byPort[p], m)
		}
		if r.customsHandled {
			for range acts.Custom {
				extra = append(extra, Delivery{Port: customPort, Msgs: []*spec.Message{m}})
			}
		}
	}
	ports := make([]int, 0, len(byPort))
	for p := range byPort {
		ports = append(ports, p)
	}
	slices.Sort(ports)
	if pkt.Flow != 0 && len(pkt.Msgs) > 0 {
		r.flows[pkt.Flow] = ports
	}
	var out []Delivery
	for _, p := range ports {
		if !(r.drop && p == pkt.In) {
			out = append(out, Delivery{Port: p, Msgs: byPort[p]})
		}
	}
	out = append(out, extra...)
	for _, d := range out {
		r.reached[d.Port] = true
	}
	r.deliveries += int64(len(out))
	return out
}

func sameDeliveries(got, want []Delivery) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Port != want[i].Port || !slices.Equal(got[i].Msgs, want[i].Msgs) {
			return false
		}
	}
	return true
}

func fmtDeliveries(ds []Delivery) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%d:%d ", d.Port, len(d.Msgs))
	}
	return b.String()
}

// runEgress drives sw, batching with workers goroutines (batchBy), and a
// reference through steps and fails on the first packet whose deliveries
// differ, then on differing stream and delivery counters.
func runEgress(t *testing.T, sw *Switch, ref *refSwitch, steps []egressStep, workers int) {
	t.Helper()
	for si, step := range steps {
		if step.install != nil {
			if err := sw.Install(step.install); err != nil {
				t.Fatal(err)
			}
			ref.install(step.install)
			continue
		}
		got := batchBy(sw, step.pkts, step.now, workers)
		for i, pkt := range step.pkts {
			if want := ref.packet(pkt, step.now); !sameDeliveries(got[i], want) {
				t.Fatalf("step %d packet %d (in %d, flow %d, %d msgs): got %s, want %s",
					si, i, pkt.In, pkt.Flow, len(pkt.Msgs), fmtDeliveries(got[i]), fmtDeliveries(want))
			}
		}
	}
	st := sw.Stats()
	if st.FlowHits != ref.hits || st.FlowMisses != ref.misses || st.Deliveries != ref.deliveries {
		t.Fatalf("stats %+v, want %d hits, %d misses, %d deliveries", st, ref.hits, ref.misses, ref.deliveries)
	}
}

// compileEgress compiles src plus extra rules over the ITCH spec.
func compileEgress(t testing.TB, sp *spec.Spec, src string, copts compiler.Options, extra ...*subscription.Rule) *compiler.Program {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	prog, err := compiler.Compile(sp, append(rules, extra...), copts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// ruleOn is the rule "filter: fwd(ports...)", built directly so that a
// port the rule syntax cannot spell (routing.UpPort) is allowed.
func ruleOn(t testing.TB, sp *spec.Spec, filter string, ports ...int) *subscription.Rule {
	t.Helper()
	r, err := subscription.NewParser(sp).ParseRule(filter+": fwd(0)", 0)
	if err != nil {
		t.Fatalf("rule %q: %v", filter, err)
	}
	r.Action = subscription.FwdAction(ports...)
	return r
}

// wideRules is a 70-port program, so its masks take W = 2 words.
func wideRules() string {
	var b strings.Builder
	for p := 0; p < 70; p++ {
		fmt.Fprintf(&b, "stock == S%d and price > %d: fwd(%d)\n", p%7, p*13%500, p)
	}
	return b.String()
}

// TestEgressMatchesEval holds the port-mask egress to the per-message
// reference: a leaf on routing.UpPort, a program of two mask words,
// ingress ports inside and outside the port dictionary, ingress drop off,
// custom actions and register updates, and stream decisions across an
// Install — with the batches driven by one worker goroutine and by four
// (batchBy).
func TestEgressMatchesEval(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	syms := []string{"GOOGL", "MSFT", "AAPL", "S0", "S1", "S2", "S3", "S4", "S5", "S6"}
	// mixed returns n packets of 1–4 messages each, cycling ingress ports
	// over ins.
	mixed := func(n int, ins ...int) []*Packet {
		pkts := make([]*Packet, n)
		for i := range pkts {
			msgs := make([]*spec.Message, 1+i%4)
			for j := range msgs {
				k := i*7 + j*3
				msgs[j] = itchMsg(sp, syms[k%len(syms)], int64(k*37%600), int64(k*11%100))
			}
			pkts[i] = &Packet{In: ins[i%len(ins)], Msgs: msgs, Bytes: 64}
		}
		return pkts
	}
	upRules := "stock == GOOGL: fwd(1)\nprice > 100: fwd(2)\nstock == MSFT: fwd(3, 4)\n"
	up := func(t testing.TB) *compiler.Program {
		return compileEgress(t, sp, upRules, compiler.Options{},
			ruleOn(t, sp, "shares > 50", routing.UpPort),
			ruleOn(t, sp, "stock == AAPL", routing.UpPort, 2))
	}
	wide := func(t testing.TB) *compiler.Program {
		return compileEgress(t, sp, wideRules(), compiler.Options{})
	}
	stateful := func(t testing.TB) *compiler.Program {
		return compileEgress(t, sp, `
stock == GOOGL and sum(shares, 1ms) > 100: fwd(1)
stock == GOOGL: fwd(2)
stock == MSFT: alert(7)
stock == MSFT and price > 100: fwd(3)
`, compiler.Options{LastHop: true})
	}
	// flow returns a header packet of stream f (nil msgs: a continuation).
	flow := func(f FlowKey, in int, msgs ...*spec.Message) *Packet {
		return &Packet{In: in, Flow: f, Msgs: msgs, Bytes: 1000}
	}

	cases := []struct {
		name  string
		prog  func(testing.TB) *compiler.Program
		drop  bool
		steps func(t testing.TB) []egressStep
		// reach lists ports the case must deliver to, so that it
		// exercises what it is named for.
		reach []int
	}{
		{
			name: "up-port", prog: up, drop: true,
			steps: func(testing.TB) []egressStep {
				// -1 and 1..4 are in the dictionary, 0 and 7 are not.
				return []egressStep{{pkts: mixed(200, routing.UpPort, 0, 1, 2, 3, 4, 7)}}
			},
			reach: []int{routing.UpPort, 4},
		},
		{
			name: "wide", prog: wide, drop: true,
			steps: func(t testing.TB) []egressStep {
				if w := wide(t).Egress().W; w != 2 {
					t.Fatalf("70-port program has W = %d", w)
				}
				return []egressStep{{pkts: mixed(300, 3, 63, 64, 65, 69, 200, routing.UpPort)}}
			},
			reach: []int{0, 63, 64, 69},
		},
		{
			name: "no-ingress-drop", prog: up, drop: false,
			steps: func(testing.TB) []egressStep {
				return []egressStep{{pkts: mixed(200, routing.UpPort, 1, 2, 3, 4)}}
			},
			reach: []int{routing.UpPort, 1, 2, 3, 4},
		},
		{
			name: "custom-stateful", prog: stateful, drop: true,
			steps: func(testing.TB) []egressStep {
				// One packet per step: registers are switch-wide, so four
				// concurrent workers would write them in no defined order
				// inside a batch. Inside a packet, a message reads what the
				// ones before it wrote.
				var steps []egressStep
				for i, now := range []time.Duration{0, 100 * time.Microsecond, 200 * time.Microsecond,
					1500 * time.Microsecond, 1600 * time.Microsecond} {
					var msgs []*spec.Message
					for j := 0; j < 5; j++ {
						stock := "GOOGL"
						if (i+j)%3 == 0 {
							stock = "MSFT"
						}
						msgs = append(msgs, itchMsg(sp, stock, int64(50+j*40), 30))
					}
					steps = append(steps, egressStep{now: now, pkts: []*Packet{{In: i % 4, Msgs: msgs, Bytes: 200}}})
				}
				return steps
			},
			// Port 1 needs the register past 100: a write read back.
			reach: []int{1, 2, 3, customPort},
		},
		{
			name: "stream", prog: up, drop: true,
			steps: func(t testing.TB) []egressStep {
				var heads, conts, after, reheads, late []*Packet
				for f := FlowKey(1); f <= 20; f++ {
					k := int(f)
					m1 := itchMsg(sp, syms[k%len(syms)], int64(k*61%400), int64(k*7%100))
					m2 := itchMsg(sp, syms[(k+3)%len(syms)], int64(k*29%400), 10)
					heads = append(heads, flow(f, 0, m1, m2), flow(f, 0))
					conts = append(conts, flow(f, []int{1, 2, 3, routing.UpPort, 9}[k%5]), flow(f+100, 0))
					after = append(after, flow(f, 0))
					if f <= 10 {
						w1 := itchMsg(sp, fmt.Sprintf("S%d", k%7), int64(k*50), 1)
						reheads = append(reheads, flow(f, 0, w1, m1))
					}
					late = append(late, flow(f, []int{0, 3, 64, 65, 200}[k%5]))
				}
				return []egressStep{
					{now: 0, pkts: heads},
					{now: time.Millisecond, pkts: conts},
					{install: wide(t)},
					// A decision of the replaced program must not forward.
					{now: 2 * time.Millisecond, pkts: after},
					{now: 3 * time.Millisecond, pkts: reheads},
					// Flows 1–10 hit two-word decisions; 11–20 still miss.
					{now: 4 * time.Millisecond, pkts: late},
				}
			},
			reach: []int{routing.UpPort, 1, 2, 3, 64},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				prog := tc.prog(t)
				sw, err := NewSwitch("s1", nil, prog, WithIngressDrop(tc.drop))
				if err != nil {
					t.Fatal(err)
				}
				sw.HandleCustom("alert", func(_ subscription.Action, m *spec.Message, _ *Packet) []Delivery {
					return []Delivery{{Port: customPort, Msgs: []*spec.Message{m}}}
				})
				ref := newRefSwitch(prog, tc.drop)
				ref.customsHandled = true
				runEgress(t, sw, ref, tc.steps(t), workers)
				for _, p := range tc.reach {
					if !ref.reached[p] {
						t.Errorf("no delivery to port %d", p)
					}
				}
			})
		}
	}
}

// FuzzEgress holds the port-mask egress to the per-message reference on
// random programs: rules forwarding to random port sets in [-1, 100]
// (several ports a rule make two-word masks likely), random ingress
// ports, streams whose decisions span an Install of a second program,
// one to four worker goroutines batching at once and ingress drop on or
// off.
func FuzzEgress(f *testing.F) {
	// Seeds shaped like TestEgressMatchesEval's cases: a few narrow rules
	// on one worker, a wide program on four, ingress drop off.
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), true)
	f.Add(uint64(2), uint8(39), uint8(7), uint8(3), true)
	f.Add(uint64(3), uint8(12), uint8(2), uint8(0), false)
	f.Add(uint64(4), uint8(25), uint8(4), uint8(3), false)
	sp := spec.MustParse("itch", itchSpecSrc)
	syms := []string{"GOOGL", "MSFT", "AAPL", "INTC", "TSLA"}
	f.Fuzz(func(t *testing.T, seed uint64, nrules, width, workers uint8, drop bool) {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		randProg := func() *compiler.Program {
			var rules []*subscription.Rule
			for i := 0; i < 1+int(nrules%40); i++ {
				var terms []string
				if rng.IntN(2) == 0 {
					terms = append(terms, "stock == "+syms[rng.IntN(len(syms))])
				}
				if rng.IntN(2) == 0 {
					terms = append(terms, fmt.Sprintf("price > %d", rng.IntN(1000)))
				}
				if len(terms) == 0 || rng.IntN(3) == 0 {
					terms = append(terms, fmt.Sprintf("shares < %d", rng.IntN(1000)))
				}
				ports := make([]int, 1+rng.IntN(1+int(width%8)))
				for j := range ports {
					ports[j] = rng.IntN(102) - 1
				}
				slices.Sort(ports)
				ports = slices.Compact(ports)
				rules = append(rules, ruleOn(t, sp, strings.Join(terms, " and "), ports...))
			}
			prog, err := compiler.Compile(sp, rules, compiler.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			return prog
		}
		randPkts := func() []*Packet {
			pkts := make([]*Packet, 32)
			for i := range pkts {
				p := &Packet{In: rng.IntN(104) - 2, Bytes: 100}
				if rng.IntN(3) == 0 {
					p.Flow = FlowKey(1 + rng.IntN(8))
				}
				if p.Flow == 0 || rng.IntN(2) == 0 {
					for j := rng.IntN(4); j >= 0; j-- {
						p.Msgs = append(p.Msgs, itchMsg(sp, syms[rng.IntN(len(syms))], int64(rng.IntN(1100)), int64(rng.IntN(1000))))
					}
				}
				pkts[i] = p
			}
			return pkts
		}
		prog := randProg()
		sw, err := NewSwitch("s1", nil, prog, WithIngressDrop(drop))
		if err != nil {
			t.Fatal(err)
		}
		runEgress(t, sw, newRefSwitch(prog, drop), []egressStep{
			{now: 0, pkts: randPkts()},
			{now: time.Millisecond, pkts: randPkts()},
			{install: randProg()},
			{now: 2 * time.Millisecond, pkts: randPkts()},
		}, 1+int(workers%4))
	})
}

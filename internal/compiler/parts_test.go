package compiler_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// partsLoads is the differential corpus: TestCompileDeterministic's loads,
// camusc's shipped ITCH and INT samples, Siena filters of exactly 1, 2
// and 3 predicates over 100 ITCH filters, statefulPartsRules and
// negatedRules.
func partsLoads(t *testing.T) []compiler.CompileLoad {
	loads := compiler.CompileLoads(t)
	for _, f := range []struct{ spec, rules string }{
		{"itch.spec", "itch.rules"}, {"itch.spec", "itchfeed.rules"}, {"int.spec", "int.rules"},
	} {
		src, err := os.ReadFile("../../cmd/camusc/testdata/" + f.spec)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(f.spec, string(src))
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile("../../cmd/camusc/testdata/" + f.rules)
		if err != nil {
			t.Fatal(err)
		}
		rules, err := subscription.NewParser(sp).ParseRules(string(text))
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, compiler.CompileLoad{Name: f.rules, Spec: sp, Rules: rules, Opts: compiler.Options{LastHop: true}})
	}
	for preds := 1; preds <= 3; preds++ {
		rules, err := workload.SienaRules(workload.SienaConfig{
			Spec: formats.ITCH, Filters: 100, MinPredicates: preds, MaxPredicates: preds, Seed: 1,
		}, 32)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, compiler.CompileLoad{Name: fmt.Sprintf("siena-preds%d-100", preds), Spec: formats.ITCH, Rules: rules})
	}
	rules, err := subscription.NewParser(formats.ITCH).ParseRules(statefulPartsRules)
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, compiler.CompileLoad{Name: "stateful-parts", Spec: formats.ITCH, Rules: rules, Opts: compiler.Options{LastHop: true}})
	rules, err = subscription.NewParser(formats.ITCH).ParseRules(negatedRules)
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, compiler.CompileLoad{Name: "negated", Spec: formats.ITCH, Rules: rules})
	return loads
}

// negatedRules negate atoms, conjunctions and disjunctions over fields of
// itch_order, which the seeded messages lack one time in ten: a negated
// atom is false there, as its normal form is.
const negatedRules = `
not (price > 500) and stock == GOOGL: fwd(1)
not (stock == MSFT): fwd(2)
not (shares < 100 or price < 50): fwd(3)
not (not (buy_sell == 1) and shares > 300): fwd(4)
stock == AAPL and not (price >= 700): fwd(5)
not (buy_sell == 0): fwd(6)
not (stock == INTC and shares <= 200): fwd(1)
`

// statefulPartsRules compile as two parts, {stock, price} and {shares},
// that both read count(1s) with thresholds the seeded messages cross: a
// part that saw the message's own register update would disagree with
// Eval.
var statefulPartsRules = func() string {
	var b strings.Builder
	for i, sym := range []string{"GOOGL", "MSFT", "AAPL", "INTC"} {
		for j, price := range []int{100, 300, 600} {
			fmt.Fprintf(&b, "stock == %s and price > %d and count(1s) < %d: fwd(%d)\n", sym, price+i, 20+40*j, 1+(i+j)%4)
		}
	}
	for k, shares := range []int{2, 5, 8, 11, 20} {
		fmt.Fprintf(&b, "shares > %d and count(1s) < %d: fwd(%d)\n", shares, 10+30*k, 5+k%3)
	}
	return b.String()
}()

// orderDefect names the loads whose seeded churn is expected to end at a
// program that is not Canonical()-equal to the batch compile:
// Universe.Extend places the aggregate fields one Apply introduces after
// every field an earlier Apply introduced, so a history that meets two
// aggregates in separate batches orders them by arrival, not by the
// batch universe's order. The test fails if one of them stops differing.
var orderDefect = map[string]bool{"stateful-lasthop": true}

// TestPartsDifferential is the differential test of parts (DESIGN §11):
// on every load, compiled in parts and as one diagram, Program.Eval, the
// ports Switch.ProcessBatch delivers to and the AST evaluator
// (subscription.MatchActions) agree on seeded messages, on the stateful
// loads at the switch's live registers and with prove's evaluator too;
// and a seeded Incremental churn that ends at the load's rules chooses the
// batch compile's parts and compiles a program Canonical()-equal to it.
func TestPartsDifferential(t *testing.T) {
	split := 0
	for _, ld := range partsLoads(t) {
		t.Run(ld.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(ld.Rules))))
			msgs := seededMessages(t, r, ld.Spec, ld.Rules, 300, 10)
			for _, one := range []bool{false, true} {
				opts := ld.Opts
				opts.OneDiagram = one
				p, err := compiler.Compile(ld.Spec, ld.Rules, opts)
				if err != nil {
					t.Fatal(err)
				}
				if one && len(p.Parts) != 1 {
					t.Fatalf("one-diagram compile has %d parts", len(p.Parts))
				}
				if !one && len(p.Parts) > 1 {
					split++
				}
				agreeOnMessages(t, p, ld.Rules, msgs, compiler.RegisterCount(p) > 0, one)
			}
			batch, err := compiler.Compile(ld.Spec, ld.Rules, ld.Opts)
			if err != nil {
				t.Fatal(err)
			}
			live := churnTo(t, r, ld)
			if got, want := partRules(live), partRules(batch); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("churned parts %v, batch parts %v", got, want)
			}
			equal := live.Canonical().String() == batch.Canonical().String()
			switch {
			case orderDefect[ld.Name] && equal:
				t.Errorf("churned program is Canonical()-equal to the batch compile: if Universe.Extend now orders aggregate fields whatever the history, drop %s from orderDefect", ld.Name)
			case orderDefect[ld.Name]:
				t.Logf("known defect: the churn meets count(1s) and avg(price, 1s) in separate batches, Universe.Extend orders them by arrival, and the program is not Canonical()-equal to the batch compile")
			case !equal:
				t.Fatalf("churned program is not Canonical()-equal to the batch compile\n%s\n%s", live.Canonical(), batch.Canonical())
			}
		})
	}
	if split < 3 {
		t.Errorf("only %d loads compiled in parts: the corpus no longer exercises them", split)
	}
}

// agreeOnMessages checks p against the rules message by message: Eval's
// action set against the AST evaluator's at empty registers, and the
// ports a switch running p delivers each message to against Eval's. With
// aggregates (stateful) the switch takes the messages one at a time,
// 100µs apart; Eval, the AST evaluator and prove's evaluator of p's
// ProveIR read the registers as they stood before each message, which it
// returns, one state per message.
func agreeOnMessages(t *testing.T, p *compiler.Program, rules []*subscription.Rule, msgs []*spec.Message, stateful, one bool) []subscription.MapState {
	t.Helper()
	sw, err := pipeline.NewSwitch("diff", nil, p, pipeline.WithIngressDrop(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if got, want := p.Eval(m, nil), subscription.MatchActions(rules, m, nil); got.Key() != want.Key() {
			t.Fatalf("one-diagram=%v: %s: Eval %s, rules %s", one, m, got, want)
		}
	}
	agree := func(m *spec.Message, reader subscription.StateReader, ds []pipeline.Delivery) {
		t.Helper()
		var ports []int
		for _, d := range ds {
			ports = append(ports, d.Port)
		}
		if want := p.Eval(m, reader).Ports; !slices.Equal(ports, want) {
			t.Fatalf("one-diagram=%v: %s: switch delivers to %v, Eval says %v", one, m, ports, want)
		}
	}
	if stateful {
		ir, err := p.ProveIR()
		if err != nil {
			t.Fatal(err)
		}
		states := make([]subscription.MapState, len(msgs))
		for i, m := range msgs {
			now := time.Duration(i) * 100 * time.Microsecond
			before := subscription.MapState(sw.Registers(now))
			want := p.Eval(m, before)
			if got := subscription.MatchActions(rules, m, before); got.Key() != want.Key() {
				t.Fatalf("one-diagram=%v: %s at %v: rules %s, Eval %s", one, m, before, got, want)
			}
			if got, _ := ir.Eval(assignment(m, before)); !got.Equal(want) {
				t.Fatalf("one-diagram=%v: %s at %v: prove %s, Eval %s", one, m, before, got, want)
			}
			agree(m, before, sw.Process(&pipeline.Packet{In: -1, Msgs: []*spec.Message{m}, Bytes: 64}, now))
			states[i] = before
		}
		return states
	}
	pkts := make([]*pipeline.Packet, len(msgs))
	for i, m := range msgs {
		pkts[i] = &pipeline.Packet{In: -1, Msgs: []*spec.Message{m}, Bytes: 64}
	}
	res := sw.ProcessBatch(pkts, 0)
	for i, m := range msgs {
		agree(m, nil, res[i])
	}
	return nil
}

// assignment is m at registers st as prove's concrete model.
func assignment(m *spec.Message, st subscription.MapState) *prove.Assignment {
	a := &prove.Assignment{Headers: map[string]bool{}, Fields: map[string]spec.Value{}, State: st}
	sp := m.Spec()
	for _, h := range sp.Headers {
		if !m.HeaderPresent(h.Name) {
			continue
		}
		a.Headers[h.Name] = true
		for _, f := range h.Fields {
			if idx, ok := sp.SubscribableIndex(f); ok {
				if v, ok := m.Get(idx); ok {
					a.Fields[f.QName()] = v
				}
			}
		}
	}
	return a
}

// TestAggregateWithoutHeader: on stateful-lasthop, messages that lack the
// header of an aggregated field while the switch's register for it is
// past the rule's threshold get one result from the AST evaluator,
// Program.Eval, prove's evaluator and the switch (agreeOnMessages): the
// aggregate atom is false without its field's header, in every mode.
func TestAggregateWithoutHeader(t *testing.T) {
	var ld compiler.CompileLoad
	for _, l := range compiler.CompileLoads(t) {
		if l.Name == "stateful-lasthop" {
			ld = l
		}
	}
	// The aggregate atoms over a field: avg(price, 1s) > 4.
	var aggs []*subscription.Atom
	for _, r := range ld.Rules {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, nr := range nrs {
			for _, a := range nr.Conj {
				if a.Ref.Kind == subscription.AggregateRef && a.Ref.Field != nil {
					aggs = append(aggs, a)
				}
			}
		}
	}
	if len(aggs) == 0 {
		t.Fatal("stateful-lasthop has no aggregate over a field")
	}
	p, err := compiler.Compile(ld.Spec, ld.Rules, ld.Opts)
	if err != nil {
		t.Fatal(err)
	}
	msgs := seededMessages(t, rand.New(rand.NewSource(46)), ld.Spec, ld.Rules, 400, 2)
	states := agreeOnMessages(t, p, ld.Rules, msgs, true, false)
	past := 0
	for i, m := range msgs {
		for _, a := range aggs {
			if !m.HeaderPresent(a.Ref.Field.Header) && subscription.Compare(spec.IntVal(states[i][a.Ref.Key()]), a.Rel, a.Const) {
				past++
			}
		}
	}
	if past < 100 {
		t.Errorf("only %d messages lack an aggregated field's header with its register past the threshold", past)
	}
}

// partRules lists the rule IDs of each part; the only part of a one-part
// program lists none.
func partRules(p *compiler.Program) [][]int {
	var out [][]int
	for _, part := range p.Parts {
		out = append(out, part.Rules)
	}
	return out
}

// churnTo reaches ld's rules through a seeded history on one Incremental:
// the rules arrive in shuffled batches among decoys (copies of other
// rules under fresh IDs), some rules leave and come back, and the decoys
// leave last. It returns the final program.
func churnTo(t *testing.T, r *rand.Rand, ld compiler.CompileLoad) *compiler.Program {
	t.Helper()
	inc, err := compiler.NewIncremental(ld.Spec, ld.Opts)
	if err != nil {
		t.Fatal(err)
	}
	order := r.Perm(len(ld.Rules))
	var decoys []int
	next := 1 << 20
	for lo := 0; lo < len(order); {
		hi := min(len(order), lo+1+r.Intn(len(order)/4+1))
		var add []*subscription.Rule
		for _, i := range order[lo:hi] {
			add = append(add, ld.Rules[i])
		}
		if r.Intn(2) == 0 {
			d := *ld.Rules[r.Intn(len(ld.Rules))]
			d.ID, next = next, next+1
			add = append(add, &d)
			decoys = append(decoys, d.ID)
		}
		var remove []int
		if lo > 0 && r.Intn(2) == 0 {
			back := ld.Rules[order[r.Intn(lo)]]
			if _, err := inc.Remove(back.ID); err != nil {
				t.Fatal(err)
			}
			add = append(add, back)
		}
		if _, err := inc.Apply(add, remove); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	up, err := inc.Apply(nil, decoys)
	if err != nil {
		t.Fatal(err)
	}
	return up.Program
}

// seededMessages draws n messages of sp whose fields take the rules'
// constants, their neighbours or random values; a header is absent one
// time in drop.
func seededMessages(t *testing.T, r *rand.Rand, sp *spec.Spec, rules []*subscription.Rule, n, drop int) []*spec.Message {
	t.Helper()
	consts := make(map[*spec.Field][]spec.Value)
	for _, rule := range rules {
		nrs, err := subscription.NormalizeRule(rule)
		if err != nil {
			t.Fatal(err)
		}
		for _, nr := range nrs {
			for _, a := range nr.Conj {
				if a.Ref.Kind == subscription.PacketRef {
					consts[a.Ref.Field] = append(consts[a.Ref.Field], a.Const)
				}
			}
		}
	}
	msgs := make([]*spec.Message, n)
	for i := range msgs {
		m := spec.NewMessage(sp)
		for _, h := range sp.Headers {
			if r.Intn(drop) == 0 {
				continue
			}
			m.MarkHeader(h.Name)
			for _, f := range h.Fields {
				if !f.Subscribable {
					continue
				}
				if err := m.Set(f.QName(), drawValue(r, f, consts[f])); err != nil {
					t.Fatal(err)
				}
			}
		}
		msgs[i] = m
	}
	return msgs
}

// drawValue draws a value of f's width: a constant of f's, an integer
// constant's neighbour, or a random value.
func drawValue(r *rand.Rand, f *spec.Field, consts []spec.Value) spec.Value {
	if f.Type == spec.StringField {
		if len(consts) > 0 && r.Intn(4) > 0 {
			return consts[r.Intn(len(consts))]
		}
		return spec.StrVal(fmt.Sprintf("R%d", r.Intn(50)))
	}
	v := int64(r.Intn(2000))
	if len(consts) > 0 && r.Intn(4) > 0 {
		v = consts[r.Intn(len(consts))].Int + int64(r.Intn(3)) - 1
	}
	return spec.IntVal(min(max(v, 0), int64(1)<<f.Bits-1))
}

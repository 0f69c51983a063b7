package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"camus/internal/ctlplane"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// The oracle decides what the system should have delivered from the rule
// ASTs alone (subscription.MatchActions / EvalExpr) — never from the BDD,
// the compiled tables or the switch's registers — and compares that with
// what the wire path actually delivered.

// seenMsg is one message of the warm-up pass and the egress ports its
// deliveries named.
type seenMsg struct {
	frame int
	msg   *spec.Message
	now   time.Duration
	ports []int
}

// recorder is the observe hook of setupDataplane: it copies the port set
// of every message of the first verifyFrames frames out of the switch's
// reusable buffers.
type recorder struct {
	seen   []seenMsg
	frames int
}

func (rec *recorder) observe(pkts []*pipeline.Packet, out [][]pipeline.Delivery, now time.Duration) {
	if rec.frames >= verifyFrames {
		return
	}
	for i, pkt := range pkts {
		ports := make(map[*spec.Message][]int, len(pkt.Msgs))
		for _, d := range out[i] {
			for _, m := range d.Msgs {
				ports[m] = append(ports[m], d.Port)
			}
		}
		for _, m := range pkt.Msgs {
			p := ports[m]
			sort.Ints(p)
			rec.seen = append(rec.seen, seenMsg{frame: rec.frames, msg: m, now: now, ports: p})
		}
		rec.frames++
	}
}

// windowReg is the benchmark's own model of one stateful aggregate: a
// tumbling window aligned at virtual time 0 that restarts empty when it
// rolls (paper §II).
type windowReg struct {
	agg        spec.AggFunc
	window     time.Duration
	field      *spec.Field
	start      time.Duration
	count, sum int64
}

func (w *windowReg) roll(now time.Duration) {
	if w.window > 0 && now-w.start >= w.window {
		w.start += (now - w.start) / w.window * w.window
		w.count, w.sum = 0, 0
	}
}

func (w *windowReg) value() int64 {
	switch w.agg {
	case spec.AggCount:
		return w.count
	case spec.AggSum:
		return w.sum
	case spec.AggAvg:
		if w.count > 0 {
			return w.sum / w.count
		}
	}
	return 0
}

// updateCtx is the stateless remainder of one stateful disjunct: the
// aggregate named by key is fed whenever rest matches.
type updateCtx struct {
	rest subscription.Conjunction
	key  string
}

// stateModel holds every aggregate the rule set reads and the contexts
// that feed them.
type stateModel struct {
	regs map[string]*windowReg
	ctxs []updateCtx
}

func newStateModel(rules []*subscription.Rule) (*stateModel, error) {
	sm := &stateModel{regs: make(map[string]*windowReg)}
	seen := make(map[string]bool)
	for _, rule := range rules {
		nrs, err := subscription.NormalizeRule(rule)
		if err != nil {
			return nil, err
		}
		for _, nr := range nrs {
			var rest subscription.Conjunction
			var aggs []subscription.FieldRef
			for _, a := range nr.Conj {
				if a.Ref.Kind == subscription.AggregateRef {
					aggs = append(aggs, a.Ref)
				} else {
					rest = append(rest, a)
				}
			}
			for _, ref := range aggs {
				key := ref.Key()
				if sm.regs[key] == nil {
					sm.regs[key] = &windowReg{agg: ref.Agg, window: ref.Window, field: ref.Field}
				}
				if id := rest.Key() + "|" + key; !seen[id] {
					seen[id] = true
					sm.ctxs = append(sm.ctxs, updateCtx{rest: rest, key: key})
				}
			}
		}
	}
	return sm, nil
}

// read returns every aggregate's value at now, before m updates any.
func (sm *stateModel) read(now time.Duration) subscription.MapState {
	st := make(subscription.MapState, len(sm.regs))
	for key, reg := range sm.regs {
		reg.roll(now)
		st[key] = reg.value()
	}
	return st
}

// update feeds m into each aggregate whose stateless context it matches —
// once per aggregate, however many contexts match.
func (sm *stateModel) update(m *spec.Message) {
	fed := make(map[string]bool)
	for _, c := range sm.ctxs {
		if fed[c.key] || !subscription.EvalConjunction(c.rest, m, nil) {
			continue
		}
		fed[c.key] = true
		reg := sm.regs[c.key]
		var v int64
		if reg.field != nil {
			idx, ok := m.Spec().SubscribableIndex(reg.field)
			if !ok {
				continue
			}
			val, present := m.Get(idx)
			if !present {
				continue
			}
			v = val.Int
		}
		reg.count++
		reg.sum += v
	}
}

// checkDeliveries replays the recorded warm-up messages through the AST
// evaluator in wire order and returns the number of frames with a
// message whose port set differs, describing the first.
func checkDeliveries(rules []*subscription.Rule, seen []seenMsg) (badFrames int, first string, err error) {
	sm, err := newStateModel(rules)
	if err != nil {
		return 0, "", err
	}
	lastBad := -1
	for _, s := range seen {
		want := subscription.MatchActions(rules, s.msg, sm.read(s.now)).Ports
		sm.update(s.msg)
		if equalInts(want, s.ports) {
			continue
		}
		if first == "" {
			first = fmt.Sprintf("frame %d message %s: expected ports %v, delivered to %v", s.frame, s.msg, want, s.ports)
		}
		if s.frame != lastBad {
			badFrames++
			lastBad = s.frame
		}
	}
	return badFrames, first, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFabric publishes n seeded single-message packets through the
// simulated network and checks that each host other than the publisher
// receives a message exactly when one of its live filters accepts it.
func checkFabric(sim *netsim.Sim, filters []ctlplane.HostFilter, hosts int, seed int64, n int) (bad int, first string) {
	byHost := make([][]subscription.Expr, hosts)
	for _, f := range filters {
		byHost[f.Host] = append(byHost[f.Host], f.Expr)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		o := &formats.Order{
			Stock: ctlSyms[r.Intn(len(ctlSyms))], Price: int64(10 + r.Intn(990)),
			Shares: int64(1 + r.Intn(1000)), Buy: r.Intn(2) == 0,
		}
		m := o.Message()
		pub := r.Intn(hosts)
		var want, got []int
		for h, exprs := range byHost {
			if h == pub {
				continue
			}
			for _, e := range exprs {
				if subscription.EvalExpr(e, m, nil) {
					want = append(want, h)
					break
				}
			}
		}
		for _, d := range sim.Publish(pub, []*spec.Message{m}, formats.ITCHOrderBytes) {
			for range d.Msgs {
				got = append(got, d.Host)
			}
		}
		sort.Ints(got)
		if equalInts(want, got) {
			continue
		}
		if bad++; first == "" {
			first = fmt.Sprintf("publication %d from host %d, message %s: expected hosts %v, delivered to %v", i, pub, m, want, got)
		}
	}
	return bad, first
}

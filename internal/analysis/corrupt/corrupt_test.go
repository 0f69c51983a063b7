package corrupt_test

import (
	"fmt"
	"sort"
	"testing"

	"camus/internal/analysis/corrupt"
	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
)

const testSpecSrc = `
header ord_qty {
    shares : u32 @field;
    price : u32 @field;
}
header ord_sym {
    stock : str8 @field_exact;
}
`

// observe runs m through a fresh switch on p and renders everything the
// dataplane did with it: the egress ports and the register updates.
func observe(t *testing.T, p *compiler.Program, m *spec.Message) string {
	t.Helper()
	sw, err := pipeline.NewSwitch("corrupt", nil, p, pipeline.WithIngressDrop(false))
	if err != nil {
		t.Fatal(err)
	}
	var ports []int
	for _, d := range sw.Process(&pipeline.Packet{In: 0, Msgs: []*spec.Message{m}}, 0) {
		ports = append(ports, d.Port)
	}
	sort.Ints(ports)
	return fmt.Sprintf("ports=%v updates=%d", ports, sw.Stats().StateUpdates)
}

// TestEveryOpReachesTheDataplane: each corruption must change what
// Switch.Process does with the packet that exercises the corrupted row.
// The structural ops (redirect-entry, drop-default) edit tables the
// packet path reads only through an index derived from them, so this
// fails if Apply stops re-deriving it.
func TestEveryOpReachesTheDataplane(t *testing.T) {
	sp := spec.MustParse("test", testSpecSrc)
	msg := func(price int64, stock string) *spec.Message {
		m := spec.NewMessage(sp)
		m.MustSet("shares", spec.IntVal(10))
		m.MustSet("price", spec.IntVal(price))
		if stock != "" {
			m.MustSet("stock", spec.StrVal(stock))
		}
		return m
	}
	stage := func(p *compiler.Program, field string) (int, *compiler.Table) {
		for i, st := range p.Stages {
			if st.Field.Ref.Kind == subscription.PacketRef && st.Field.Ref.Field.Name == field {
				return i, st
			}
		}
		t.Fatalf("no stage on %s", field)
		return 0, nil
	}
	leafOf := func(p *compiler.Program, m *spec.Message) int {
		le := p.Lookup(m, nil)
		for i := range p.Leaf {
			if p.Leaf[i] == le {
				return i
			}
		}
		t.Fatalf("%s reaches no leaf row", m)
		return 0
	}

	for _, c := range []struct {
		op    string
		rules string
		opts  compiler.Options
		m     *spec.Message
		// pick names the row m exercises.
		pick func(p *compiler.Program, m *spec.Message) corrupt.Mutation
	}{
		{op: "add-leaf-port", rules: "stock == GOOGL: fwd(1)", m: msg(60, "GOOGL"),
			pick: func(p *compiler.Program, m *spec.Message) corrupt.Mutation {
				return corrupt.Mutation{Op: "add-leaf-port", Leaf: leafOf(p, m), Port: 9}
			}},
		{op: "remove-leaf-port", rules: "stock == GOOGL: fwd(1)", m: msg(60, "GOOGL"),
			pick: func(p *compiler.Program, m *spec.Message) corrupt.Mutation {
				return corrupt.Mutation{Op: "remove-leaf-port", Leaf: leafOf(p, m), Port: 1}
			}},
		{op: "redirect-entry", rules: "stock == GOOGL: fwd(1)", m: msg(60, "GOOGL"),
			// The GOOGL entry jumps to where its state's miss goes.
			pick: func(p *compiler.Program, m *spec.Message) corrupt.Mutation {
				si, st := stage(p, "stock")
				for ei, e := range st.Entries {
					if v, ok := e.Match.Exact(); ok && v.Str == "GOOGL" {
						return corrupt.Mutation{Op: "redirect-entry", Stage: si, Entry: ei, Out: st.Defaults[e.In]}
					}
				}
				t.Fatal("no GOOGL entry")
				return corrupt.Mutation{}
			}},
		{op: "drop-default", rules: "stock == GOOGL: fwd(1)\nprice > 50: fwd(2)", m: msg(60, ""),
			// Without validity guards a packet lacking stock takes the
			// stock stage's default; drop the one from which a forwarding
			// leaf is still reachable, wherever the variable order puts
			// the stage.
			opts: compiler.Options{DisableValidityGuards: true},
			pick: func(p *compiler.Program, m *spec.Message) corrupt.Mutation {
				si, st := stage(p, "stock")
				var forwards func(from int, s compiler.StateID) bool
				forwards = func(from int, s compiler.StateID) bool {
					for _, le := range p.Leaf {
						if le.In == s && len(le.Actions.Ports) > 0 {
							return true
						}
					}
					for i, later := range p.Stages[from:] {
						for _, e := range later.Entries {
							if e.In == s && forwards(from+i+1, e.Out) {
								return true
							}
						}
					}
					return false
				}
				for in, d := range st.Defaults {
					if forwards(si+1, d) {
						return corrupt.Mutation{Op: "drop-default", Stage: si, Out: in}
					}
				}
				t.Fatal("no default leads to a forwarding leaf")
				return corrupt.Mutation{}
			}},
		{op: "drop-update", rules: "stock == GOOGL and avg(price) > 60: fwd(1)", m: msg(10, "GOOGL"),
			opts: compiler.Options{LastHop: true},
			pick: func(p *compiler.Program, m *spec.Message) corrupt.Mutation {
				i := leafOf(p, m)
				return corrupt.Mutation{Op: "drop-update", Leaf: i, Key: p.Leaf[i].Updates[0]}
			}},
		{op: "add-update", rules: "stock == GOOGL and avg(price) > 60: fwd(1)", m: msg(10, "MSFT"),
			opts: compiler.Options{LastHop: true},
			pick: func(p *compiler.Program, m *spec.Message) corrupt.Mutation {
				var key string
				for _, le := range p.Leaf {
					if len(le.Updates) > 0 {
						key = le.Updates[0]
					}
				}
				return corrupt.Mutation{Op: "add-update", Leaf: leafOf(p, m), Key: key}
			}},
	} {
		t.Run(c.op, func(t *testing.T) {
			rules, err := subscription.NewParser(sp).ParseRules(c.rules)
			if err != nil {
				t.Fatal(err)
			}
			p, err := compiler.Compile(sp, rules, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			before := observe(t, p, c.m)
			mut := c.pick(p, c.m)
			if err := mut.Apply(p); err != nil {
				t.Fatalf("%+v: %v", mut, err)
			}
			if after := observe(t, p, c.m); after == before {
				t.Errorf("%+v left the dataplane unchanged on %s: %s", mut, c.m, after)
			}
		})
	}
}

// TestCorruptionStaysInItsProgram: an Incremental's successive programs
// share their entries, so a mutation that wrote through one would poison
// every later epoch. Corrupt one row of each kind in a program an
// Incremental produced, then apply a change that leaves those rows'
// blocks alone: the next program must still be the batch compile's.
func TestCorruptionStaysInItsProgram(t *testing.T) {
	sp := spec.MustParse("test", testSpecSrc)
	parser := subscription.NewParser(sp)
	var rules []*subscription.Rule
	add := func(src string) *subscription.Rule {
		r, err := parser.ParseRule(src, len(rules))
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
		return r
	}
	opts := compiler.Options{LastHop: true}
	inc, err := compiler.NewIncremental(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	up, err := inc.Add(
		add("stock == GOOGL and price > 50: fwd(1)"),
		add("stock == GOOGL and avg(price) > 60: fwd(2)"),
		add("stock == MSFT and price < 20: fwd(3)"))
	if err != nil {
		t.Fatal(err)
	}
	p := up.Program
	clean := p.Canonical().String()

	var ms []corrupt.Mutation
	for si, st := range p.Stages {
		for ei, e := range st.Entries {
			ms = append(ms, corrupt.Mutation{Op: "redirect-entry", Stage: si, Entry: ei, Out: p.Leaf[0].In})
			if len(st.Defaults) > 0 && ei == 0 {
				ms = append(ms, corrupt.Mutation{Op: "drop-default", Stage: si, Out: e.In})
			}
		}
	}
	for li, le := range p.Leaf {
		ms = append(ms, corrupt.Mutation{Op: "add-leaf-port", Leaf: li, Port: 9},
			corrupt.Mutation{Op: "add-update", Leaf: li, Key: "avg(ord_qty.price)@100ms"})
		if len(le.Actions.Ports) > 0 {
			ms = append(ms, corrupt.Mutation{Op: "remove-leaf-port", Leaf: li, Port: le.Actions.Ports[0]})
		}
		if len(le.Updates) > 0 {
			ms = append(ms, corrupt.Mutation{Op: "drop-update", Leaf: li, Key: le.Updates[0]})
		}
	}
	if err := corrupt.Apply(p, ms); err != nil {
		t.Fatal(err)
	}
	if p.Canonical().String() == clean {
		t.Fatal("the mutations changed nothing")
	}

	up, err = inc.Add(add("stock == AAPL: fwd(4)"))
	if err != nil {
		t.Fatal(err)
	}
	if up.ReusedEntries == 0 {
		t.Fatal("the second program shares nothing with the corrupted one")
	}
	batch, err := compiler.Compile(sp, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := up.Program.Canonical().String(), batch.Canonical().String(); got != want {
		t.Errorf("the program after a corrupted epoch differs from the batch compile:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

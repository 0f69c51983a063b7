package compiler_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// TestNegationWithoutHeader: a negated atom is false on a message without
// the header it reads, in the AST evaluator as in every compiled program
// (normalization pushes the negation to the atom, which carries the
// header's validity guard). On a message without itch_order both rules
// match nothing.
func TestNegationWithoutHeader(t *testing.T) {
	rules, err := subscription.NewParser(formats.ITCH).ParseRules(`
not (price > 5): fwd(1)
not (stock == GOOGL): fwd(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.NewMessage(formats.ITCH)
	for _, one := range []bool{false, true} {
		p, err := compiler.Compile(formats.ITCH, rules, compiler.Options{OneDiagram: one})
		if err != nil {
			t.Fatal(err)
		}
		got, want := subscription.MatchActions(rules, m, nil), p.Eval(m, nil)
		if !got.Equal(want) || !got.IsEmpty() {
			t.Errorf("one-diagram=%v: MatchActions %s, Program.Eval %s, want both fwd()", one, got, want)
		}
	}
}

// TestActionIdentity: log("a,b") and log(a, b) are two actions — one
// argument holding a comma against two. Every action set keeps both, and
// Program.Lookup, MatchActions and the switch's custom handler agree on
// them, on a one-part program and on a two-part one whose parts each
// carry both; each prints as an action that parses back to itself.
func TestActionIdentity(t *testing.T) {
	src := "stock == GOOGL: log(\"a,b\")\nstock == GOOGL: log(a, b)\n"
	rules := parseITCH(t, src)
	a, b := rules[0].Action, rules[1].Action
	if a.Equal(b) || a.Key() == b.Key() {
		t.Fatalf("%s and %s are one action", a, b)
	}
	var set subscription.ActionSet
	set.Add(a)
	set.Add(b)
	set.Add(a)
	if len(set.Custom) != 2 {
		t.Fatalf("action set %s keeps %d of the two actions", set, len(set.Custom))
	}
	for _, act := range []subscription.Action{a, b} {
		back := parseITCH(t, "stock == GOOGL: "+act.String())[0].Action
		if !back.Equal(act) {
			t.Errorf("%s parses back as %s (args %q, want %q)", act, back, back.Args, act.Args)
		}
	}

	// The second load adds the two actions on price, and fwd rules on
	// both fields that make a one-diagram merge their product.
	var b2 strings.Builder
	b2.WriteString(src + "price > 100: log(\"a,b\")\nprice > 100: log(a, b)\n")
	for i, sym := range []string{"MSFT", "AAPL", "INTC", "AMZN", "ORCL", "IBM"} {
		fmt.Fprintf(&b2, "stock == %s: fwd(%d)\n", sym, i+1)
		fmt.Fprintf(&b2, "price > %d: fwd(%d)\n", 200+100*i, i+1)
	}
	for _, ld := range []struct {
		src   string
		parts int
	}{{src, 1}, {b2.String(), 2}} {
		rules := parseITCH(t, ld.src)
		p, err := compiler.Compile(formats.ITCH, rules, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Parts) != ld.parts {
			t.Fatalf("%d rules compile in %d parts, want %d", len(rules), len(p.Parts), ld.parts)
		}
		m := spec.NewMessage(formats.ITCH)
		m.MarkHeader("itch_order")
		m.MustSet("stock", spec.StrVal("GOOGL"))
		m.MustSet("price", spec.IntVal(150))
		want := subscription.MatchActions(rules, m, nil)
		if len(want.Custom) != 2 {
			t.Fatalf("%d parts: MatchActions %s keeps %d of the two actions", ld.parts, want, len(want.Custom))
		}
		if le := p.Lookup(m, nil); le == nil || !le.Actions.Equal(want) {
			t.Errorf("%d parts: Program.Lookup %v, MatchActions %s", ld.parts, le, want)
		}
		sw, err := pipeline.NewSwitch("ids", nil, p)
		if err != nil {
			t.Fatal(err)
		}
		var called []subscription.Action
		sw.HandleCustom("log", func(act subscription.Action, _ *spec.Message, _ *pipeline.Packet) []pipeline.Delivery {
			called = append(called, act)
			return nil
		})
		sw.Process(&pipeline.Packet{In: -1, Msgs: []*spec.Message{m}, Bytes: 64}, 0)
		slices.SortFunc(called, func(x, y subscription.Action) int { return strings.Compare(x.Key(), y.Key()) })
		if !slices.EqualFunc(called, want.Custom, subscription.Action.Equal) {
			t.Errorf("%d parts: the switch calls the handler with %v, MatchActions %s", ld.parts, called, want)
		}
	}
}

func parseITCH(t *testing.T, src string) []*subscription.Rule {
	t.Helper()
	rules, err := subscription.NewParser(formats.ITCH).ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

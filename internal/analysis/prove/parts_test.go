package prove_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"camus/internal/analysis/prove"
	"camus/internal/compiler"
)

// partsSrc has two rule shapes on different fields, {stock, price} and
// {shares}, which compile as two parts.
func partsSrc() string {
	var b strings.Builder
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			fmt.Fprintf(&b, "stock == S%d and price > %d: fwd(%d)\n", i, 100+200*j+i, 1+(i+j)%4)
		}
	}
	for k := 0; k < 5; k++ {
		fmt.Fprintf(&b, "shares > %d: fwd(%d)\n", 2+3*k, 5+k%3)
	}
	return b.String()
}

// TestProveParts: a program of two parts proves clean, part by part;
// and an IR whose parts do not partition the rules, or lost a part, or
// gave a rule to the wrong part, fails its proof.
func TestProveParts(t *testing.T) {
	sp := testSpec(t)
	p, rules := compileRules(t, sp, partsSrc(), compiler.Options{})
	if len(p.Parts) != 2 {
		t.Fatalf("%d parts, want 2", len(p.Parts))
	}
	if res := proveProgram(t, p, rules, prove.Options{}); !res.Ok() {
		t.Fatalf("clean two-part program failed its proof: %+v", res.Findings)
	}
	kinds := func(res *prove.Result) []string {
		var out []string
		for _, f := range res.Findings {
			out = append(out, f.Kind)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	for _, c := range []struct {
		name string
		edit func(ir *prove.Program)
		want []string
	}{
		{"rule in both parts", func(ir *prove.Program) {
			ir.Parts[0].Rules = append(slices.Clone(ir.Parts[0].Rules), ir.Parts[1].Rules[0])
		}, []string{prove.KindMissingAction, prove.KindPartition, prove.KindSpuriousAction}},
		{"unknown rule", func(ir *prove.Program) {
			ir.Parts[1].Rules = append(slices.Clone(ir.Parts[1].Rules), 999)
		}, []string{prove.KindPartition}},
		{"part lost", func(ir *prove.Program) { ir.Parts = ir.Parts[:1] }, []string{prove.KindMissingAction}},
		{"rule moved", func(ir *prove.Program) {
			moved := ir.Parts[1].Rules[0]
			ir.Parts[1].Rules = slices.Clone(ir.Parts[1].Rules[1:])
			ir.Parts[0].Rules = append(slices.Clone(ir.Parts[0].Rules), moved)
		}, []string{prove.KindMissingAction, prove.KindSpuriousAction}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ir, err := p.ProveIR()
			if err != nil {
				t.Fatal(err)
			}
			c.edit(ir)
			res, err := prove.Check(ir, rules, prove.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := kinds(res); !slices.Equal(got, c.want) {
				t.Errorf("findings %v, want kinds %v", res.Findings, c.want)
			}
		})
	}
}

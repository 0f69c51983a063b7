package compiler_test

import (
	"fmt"
	"strings"
	"testing"

	"camus/internal/analysis/fitcheck"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/subscription"
)

// TestEgressGroups: the multicast groups are the egress mask rows of two
// or more ports, numbered as a table keyed by each leaf's action-set
// ports in leaf order would number them, and their count is what
// Resources and the fit analyzer report. The corpus is
// TestCompileDeterministic's plus a 70-port program, whose masks take
// two words.
func TestEgressGroups(t *testing.T) {
	var b strings.Builder
	for p := 0; p < 70; p++ {
		fmt.Fprintf(&b, "stock == S%d and price > %d: fwd(%d)\n", p%7, p*13%500, p)
	}
	wide, err := subscription.NewParser(formats.ITCH).ParseRules(b.String())
	if err != nil {
		t.Fatal(err)
	}
	loads := append(compiler.CompileLoads(t), compiler.CompileLoad{Name: "wide-70", Spec: formats.ITCH, Rules: wide})
	for _, ld := range loads {
		t.Run(ld.Name, func(t *testing.T) {
			p, err := compiler.Compile(ld.Spec, ld.Rules, ld.Opts)
			if err != nil {
				t.Fatal(err)
			}
			eg := p.Egress()
			if ld.Name == "wide-70" && (eg.W != 2 || eg.Groups() == 0) {
				t.Fatalf("wide program has W = %d and %d groups, want 2 words and some groups", eg.W, eg.Groups())
			}
			if g := eg.Group(0); g != -1 {
				t.Errorf("drop slot in group %d", g)
			}
			ref := make(map[string]int)
			for i, le := range p.Leaf {
				want := -1
				if len(le.Actions.Ports) > 1 {
					key := fmt.Sprint(le.Actions.Ports)
					g, ok := ref[key]
					if !ok {
						g = len(ref)
						ref[key] = g
					}
					want = g
				}
				if got := eg.Group(i + 1); got != want {
					t.Fatalf("leaf %d (%s): group %d, want %d", i, le.Actions, got, want)
				}
			}
			if eg.Groups() != len(ref) {
				t.Errorf("Groups() = %d, want %d distinct port sets", eg.Groups(), len(ref))
			}
			if r := p.Resources.MulticastGroups; r != eg.Groups() {
				t.Errorf("Resources.MulticastGroups = %d, Groups() = %d", r, eg.Groups())
			}
			if n := fitcheck.Analyze(p, fitcheck.Options{SkipHeadroom: true}).MulticastGroups; n != eg.Groups() {
				t.Errorf("fitcheck counts %d groups, Groups() = %d", n, eg.Groups())
			}
		})
	}
}

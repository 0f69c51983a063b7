package compiler

import (
	"testing"

	"camus/internal/analysis/prove"
)

// TestProveIRReadsEgress: ProveIR takes each group's ports from the egress
// masks the switch replicates by, decoded through the port dictionary, so
// a flipped bit in a group's first slot or a wrong dictionary port is a
// group-mismatch while the leaf table still says the right thing.
func TestProveIRReadsEgress(t *testing.T) {
	sp := testSpec(t)
	rules := mustRules(t, sp, "stock == GOOGL: fwd(1)\nstock == GOOGL: fwd(2)\nstock == MSFT: fwd(3)")
	mismatches := func(p *Program) int {
		t.Helper()
		ir, err := p.ProveIR()
		if err != nil {
			t.Fatal(err)
		}
		res, err := prove.Check(ir, rules, prove.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, f := range res.Findings {
			if f.Kind == prove.KindGroupMismatch {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name    string
		corrupt func(e *Egress, slot int)
	}{
		{"mask-bit", func(e *Egress, slot int) { e.Mask(slot)[0] ^= 1 }},
		{"dictionary-port", func(e *Egress, _ int) { e.Ports[0] += 100 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(sp, rules, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if n := mismatches(p); n != 0 {
				t.Fatalf("clean program: %d group-mismatch findings", n)
			}
			eg := p.Egress()
			slot := 0
			for s := 1; s <= len(p.Leaf); s++ {
				if eg.Group(s) == 0 {
					slot = s
					break
				}
			}
			if slot == 0 {
				t.Fatal("no multicast group")
			}
			tc.corrupt(eg, slot)
			if n := mismatches(p); n == 0 {
				t.Error("corrupted egress: no group-mismatch finding")
			}
		})
	}
}

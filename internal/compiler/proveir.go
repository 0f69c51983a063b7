package compiler

import (
	"fmt"
	"math/bits"

	"camus/internal/analysis/prove"
	"camus/internal/match"
	"camus/internal/spec"
)

// ProveIR exports the compiled program into the translation
// validator's neutral IR (internal/analysis/prove). The dependency
// points this way on purpose: prove must not import the compiler (or
// anything reaching internal/bdd), so the compiler re-expresses its
// match constraints in the prover's own domain vocabulary here. The
// conversion is shape-only — intervals and exact/cofinite string sets
// map one-to-one — so a miscompiled entry survives export and is
// caught by prove.Check.
func (p *Program) ProveIR() (*prove.Program, error) {
	out := &prove.Program{
		Spec: p.Spec,
		Init: p.Init,
	}
	for _, t := range p.Stages {
		st := &prove.Stage{
			Ref:      t.Field.Ref,
			Defaults: make(map[int32]int32, len(t.Defaults)),
		}
		for in, o := range t.Defaults {
			st.Defaults[in] = o
		}
		for _, e := range t.Entries {
			pe := &prove.Entry{In: e.In, Out: e.Out}
			switch c := e.Match.(type) {
			case *match.IntConstraint:
				if t.Field.Type() != spec.IntField {
					return nil, fmt.Errorf("compiler: stage %s: integer constraint on %s field", t.Name(), t.Field.Type())
				}
				d := prove.IntRange(c.Lo, c.Hi)
				for _, x := range c.Excluded {
					d = d.Without(x)
				}
				pe.Int = d
			case *match.StrConstraint:
				if t.Field.Type() != spec.StringField {
					return nil, fmt.Errorf("compiler: stage %s: string constraint on %s field", t.Name(), t.Field.Type())
				}
				if c.HasKnown {
					pe.Str = prove.StrExact(c.Known)
				} else {
					pe.Str = prove.StrCofinite(c.Required, c.ExcludedEq, c.ExcludedPx)
				}
			default:
				return nil, fmt.Errorf("compiler: stage %s: unknown constraint type %T", t.Name(), e.Match)
			}
			st.Entries = append(st.Entries, pe)
		}
		out.Stages = append(out.Stages, st)
	}
	// A group's ports are its first slot's mask words decoded through the
	// port dictionary: what the switch replicates, not what the leaf says.
	eg := p.Egress()
	for i, le := range p.Leaf {
		g := eg.Group(i + 1)
		out.Leaves = append(out.Leaves, &prove.Leaf{
			In:      le.In,
			Actions: le.Actions.Clone(),
			Group:   g,
			Updates: append([]string(nil), le.Updates...),
		})
		if g == len(out.Groups) {
			var ports []int
			for w, word := range eg.Mask(i + 1) {
				for ; word != 0; word &= word - 1 {
					ports = append(ports, eg.Ports[64*w+bits.TrailingZeros64(word)])
				}
			}
			out.Groups = append(out.Groups, ports)
		}
	}
	out.Finalize()
	return out, nil
}

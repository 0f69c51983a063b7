// Package replay turns a prover counterexample into a wire packet and
// runs it through the real dataplane. The prover's verdicts are
// computed on two software models (its AST semantics and its neutral
// program IR); replay closes the loop by serializing the counterexample
// assignment with internal/packet, decoding it back, and replaying it
// through pipeline.Switch — confirming the divergence is observable on
// the shipping pipeline, not an artifact of either model.
package replay

import (
	"fmt"
	"slices"

	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/packet"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Outcome is one replayed counterexample.
type Outcome struct {
	// Wire is the serialized packet: the present headers' encodings
	// concatenated in spec declaration order.
	Wire []byte
	// Headers lists the serialized headers, in order.
	Headers []string
	// Want is the rule set's ground-truth action set for the packet;
	// WantUpdates the register updates it owes.
	Want        subscription.ActionSet
	WantUpdates []string
	// Got is what pipeline.Switch actually did with the decoded packet;
	// GotUpdates the register updates it fired.
	Got        subscription.ActionSet
	GotUpdates []string
	// Ports is the delivery port set from Switch.Process.
	Ports []int
}

// Diverges reports whether the pipeline's behavior differs from the
// rule set's ground truth.
func (o *Outcome) Diverges() bool {
	if !o.Want.Equal(o.Got) {
		return true
	}
	if len(o.WantUpdates) != len(o.GotUpdates) {
		return true
	}
	for i := range o.WantUpdates {
		if o.WantUpdates[i] != o.GotUpdates[i] {
			return true
		}
	}
	return false
}

// Confirm serializes a counterexample assignment, decodes it back and
// replays it through a fresh pipeline.Switch running prog, comparing
// the result against the rule set's ground truth under the prover's
// last-hop options. Only stateless counterexamples replay: aggregate
// registers live inside the switch and are not on the wire.
func Confirm(sp *spec.Spec, prog *compiler.Program, rules []*subscription.Rule,
	cex *prove.Assignment, opts prove.Options) (*Outcome, error) {
	if !cex.Stateless() {
		return nil, fmt.Errorf("replay: counterexample needs aggregate state %v; registers are not serializable", cex.State)
	}

	out := &Outcome{}
	var m *spec.Message
	var err error
	out.Wire, out.Headers, m, err = roundTrip(sp, cex)
	if err != nil {
		return nil, err
	}
	out.Want, out.WantUpdates, err = prove.EvalRules(rules, opts, cex)
	if err != nil {
		return nil, err
	}

	sw, err := pipeline.NewSwitch("replay", nil, prog, pipeline.WithIngressDrop(false))
	if err != nil {
		return nil, err
	}
	out.Got = sw.EvalMessage(m, 0)
	if le := prog.Lookup(m, cex.MapState()); le != nil {
		out.GotUpdates = append([]string(nil), le.Updates...)
		slices.Sort(out.GotUpdates)
	}
	for _, d := range sw.Process(&pipeline.Packet{In: 0, Msgs: []*spec.Message{m}, Bytes: len(out.Wire)}, 0) {
		out.Ports = append(out.Ports, d.Port)
	}
	return out, nil
}

// roundTrip serializes the present headers in declaration order, then
// decodes the bytes back into a fresh message through the same codecs —
// the replayed packet is exactly what a wire round-trip preserves.
func roundTrip(sp *spec.Spec, cex *prove.Assignment) (wire []byte, headers []string, m *spec.Message, err error) {
	var codecs []*packet.HeaderCodec
	size := 0
	for _, h := range sp.Headers {
		if !cex.Headers[h.Name] {
			continue
		}
		codec, err := packet.NewHeaderCodec(sp, h.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		codecs = append(codecs, codec)
		headers = append(headers, h.Name)
		size += codec.Size()
	}
	wire = make([]byte, size)
	hdr := wire
	for _, codec := range codecs {
		for _, f := range codec.Header.Fields {
			if v, ok := cex.Fields[f.QName()]; ok {
				x, err := codec.Field(f.Name)
				if err == nil {
					err = x.Put(hdr, v)
				}
				if err != nil {
					return nil, nil, nil, fmt.Errorf("replay: encode %s: %w", codec.Header.Name, err)
				}
			}
		}
		hdr = hdr[codec.Size():]
	}
	m = spec.NewMessage(sp)
	rest := wire
	for _, codec := range codecs {
		if rest, err = codec.Decode(rest, m); err != nil {
			return nil, nil, nil, fmt.Errorf("replay: decode %s: %w", codec.Header.Name, err)
		}
	}
	if len(rest) != 0 {
		return nil, nil, nil, fmt.Errorf("replay: %d trailing bytes after decode", len(rest))
	}
	return wire, headers, m, nil
}

package compiler

import (
	"fmt"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// StaticPipeline is the once-per-application switch configuration
// generated from the message spec (§V-A): the parse graph, the fixed
// sequence of match-action stages (one per subscribable field plus the
// leaf), and the pre-allocated register block for state variables. The
// dynamic Program populates its tables at runtime.
type StaticPipeline struct {
	Spec *spec.Spec
	// StageFields lists the subscribable fields, in spec order, each of
	// which owns one match-action stage.
	StageFields []*spec.Field
	// RegisterBlock is the number of registers pre-allocated for state
	// variables; the dynamic compiler links aggregates to them (§V-A:
	// "statically pre-allocates a block of registers that are then
	// assigned to specific variables dynamically").
	RegisterBlock int
	// MaxParsedMessages bounds how many application messages one parser
	// pass can extract (PHV budget); deeper packets recirculate (§VI-B).
	MaxParsedMessages int
}

// StaticOptions has no settings: the register block (64) and the parse
// budget (4 messages a pass) belong to the chip. The parameter stays
// for existing callers.
type StaticOptions struct{}

// GenerateStatic performs the static compilation step: executed once per
// application, independent of the subscription rules.
func GenerateStatic(sp *spec.Spec, _ StaticOptions) (*StaticPipeline, error) {
	fields := sp.SubscribableFields()
	if len(fields) == 0 {
		return nil, fmt.Errorf("compiler: spec %s has no subscribable fields", sp.Name)
	}
	if len(fields)+1 > MaxPipelineStages {
		return nil, fmt.Errorf("compiler: spec %s needs %d stages, switch has %d",
			sp.Name, len(fields)+1, MaxPipelineStages)
	}
	return &StaticPipeline{
		Spec:              sp,
		StageFields:       fields,
		RegisterBlock:     64,
		MaxParsedMessages: 4,
	}, nil
}

// Validate checks that a dynamic program can be loaded onto this static
// pipeline: same spec, every program stage backed by a static stage, and
// the aggregate registers within the pre-allocated block.
func (sp *StaticPipeline) Validate(p *Program) error {
	if p.Spec != sp.Spec {
		return fmt.Errorf("compiler: program spec %q does not match pipeline spec %q",
			p.Spec.Name, sp.Spec.Name)
	}
	static := make(map[string]bool, len(sp.StageFields))
	for _, f := range sp.StageFields {
		static[f.QName()] = true
	}
	regs := 0
	for _, t := range p.Stages {
		switch t.Field.Ref.Kind {
		case subscription.PacketRef:
			if !static[t.Field.Ref.Field.QName()] {
				return fmt.Errorf("compiler: program matches %s which has no static stage",
					t.Field.Ref.Field.QName())
			}
		case subscription.AggregateRef:
			regs++
		}
	}
	if regs > sp.RegisterBlock {
		return fmt.Errorf("compiler: program needs %d registers, block has %d",
			regs, sp.RegisterBlock)
	}
	return nil
}

package compiler

import (
	"fmt"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// MaxParsedMessages bounds how many application messages one parser
// pass can extract (PHV budget); deeper packets recirculate (§VI-B).
const MaxParsedMessages = 4

// StaticPipeline is the once-per-application switch configuration
// generated from the message spec (§V-A): the parse graph and the fixed
// sequence of match-action stages (one per subscribable field plus the
// leaf). The register block the dynamic compiler links aggregates to
// (§V-A: "statically pre-allocates a block of registers that are then
// assigned to specific variables dynamically") is RegisterBudget
// registers. The dynamic Program populates its tables at runtime.
type StaticPipeline struct {
	Spec *spec.Spec
	// StageFields lists the subscribable fields, in spec order, each of
	// which owns one match-action stage.
	StageFields []*spec.Field
}

// StaticOptions has no settings: the register block and the parse
// budget belong to the chip. The parameter stays for existing callers.
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
	return &StaticPipeline{Spec: sp, StageFields: fields}, nil
}

// Validate checks that a dynamic program can be loaded onto this static
// pipeline: same spec, every program stage backed by a static stage, and
// the aggregate registers (RegisterCount) within RegisterBudget — the
// budget fitcheck and admission enforce.
func (sp *StaticPipeline) Validate(p *Program) error {
	if p.Spec != sp.Spec {
		return fmt.Errorf("compiler: program spec %q does not match pipeline spec %q",
			p.Spec.Name, sp.Spec.Name)
	}
	static := make(map[string]bool, len(sp.StageFields))
	for _, f := range sp.StageFields {
		static[f.QName()] = true
	}
	for _, t := range p.Stages {
		if t.Field.Ref.Kind == subscription.PacketRef && !static[t.Field.Ref.Field.QName()] {
			return fmt.Errorf("compiler: program matches %s which has no static stage",
				t.Field.Ref.Field.QName())
		}
	}
	if regs := RegisterCount(p); regs > RegisterBudget {
		return fmt.Errorf("compiler: program needs %d registers, block has %d",
			regs, RegisterBudget)
	}
	return nil
}

package ctlplane

import (
	"fmt"

	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// Validator certifies a freshly compiled program for one switch against
// the rule set it was compiled from, before the program is installed.
// The rules slice is the switch's surviving registry sorted by rule ID
// (Reconciler.Rules); the validator must not retain it.
type Validator func(sw int, prog *compiler.Program, rules []*subscription.Rule) error

// ErrValidationFailed wraps prover findings surfaced by a Validator so
// callers can distinguish disequivalence from install failures.
var ErrValidationFailed = fmt.Errorf("ctlplane: epoch validation failed")

// ProveValidator builds a translation-validation hook from the
// independent symbolic prover (internal/analysis/prove): every sampled
// epoch swap is re-proved equivalent to the switch's live rule set
// before it reaches the installer. The prover options mirror the
// Reconciler's per-switch compile options exactly — upstream semantics
// with stateful predicates active only on host-facing ports — so a
// clean reconciler always certifies clean.
//
// Each symbolic exploration runs at the prover's default budget. A
// budget overflow is reported as a validation error too:
// under churn the per-switch programs are small, so an exhausted
// budget signals a misconfigured limit rather than an intractable
// table, and silently skipping it would weaken the certificate.
func ProveValidator(net *topology.Network) Validator {
	return func(sw int, prog *compiler.Program, rules []*subscription.Rule) error {
		if sw < 0 || sw >= len(net.Switches) {
			return fmt.Errorf("%w: switch %d out of range", ErrValidationFailed, sw)
		}
		opts := prove.Options{
			LastHop:     false,
			LastHopPort: net.Switches[sw].HostFacing,
		}
		ir, err := prog.ProveIR()
		if err != nil {
			return fmt.Errorf("%w: switch %d: export IR: %v", ErrValidationFailed, sw, err)
		}
		res, err := prove.Check(ir, rules, opts)
		if err != nil {
			return fmt.Errorf("%w: switch %d: %v", ErrValidationFailed, sw, err)
		}
		if res.Ok() {
			return nil
		}
		if res.Overflowed && len(res.Findings) == 0 {
			return fmt.Errorf("%w: switch %d: symbolic budget exhausted after %d paths",
				ErrValidationFailed, sw, res.Paths)
		}
		f := res.Findings[0]
		return fmt.Errorf("%w: switch %d: %d findings; first: %s (rule %d): %s",
			ErrValidationFailed, sw, len(res.Findings), f.Kind, f.RuleID, f.Message)
	}
}

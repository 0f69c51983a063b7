package ctlplane

import (
	"fmt"

	"camus/internal/analysis/netcheck"
	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/topology"
)

// HostFilter is one live subscription as the network-wide validator
// sees it: the exact filter expression bound to its subscribing host.
type HostFilter = netcheck.Subscription

// NetValidator certifies the whole deployment — every switch's current
// program against the live subscription set — at a quiescent point (no
// in-flight events, so the programs and the filter registry are a
// consistent cut). progs is indexed by switch ID; nil entries are
// switches that never compiled (they drop everything, which the
// checker treats as a black hole if any class needed them). The
// validator must not retain either slice.
type NetValidator func(progs []*compiler.Program, filters []HostFilter) error

// NetcheckValidator builds a network-wide delivery validator from the
// symbolic verifier (internal/analysis/netcheck): every sampled
// quiescence re-proves the three invariants — no black holes, no
// loops, exact delivery — for the control plane's current placement.
// Like ProveValidator, a budget overflow is a validation error: the
// certificate must be complete to count, at the verifier's default
// budgets.
func NetcheckValidator(net *topology.Network, sp *spec.Spec) NetValidator {
	return func(progs []*compiler.Program, filters []HostFilter) error {
		irs := make([]*prove.Program, len(progs))
		for i, p := range progs {
			if p == nil {
				continue
			}
			ir, err := p.ProveIR()
			if err != nil {
				return fmt.Errorf("%w: netcheck: switch %d: export IR: %v", ErrValidationFailed, i, err)
			}
			irs[i] = ir
		}
		res, err := netcheck.CheckFatTree(net, sp, irs, filters, netcheck.Options{})
		if err != nil {
			return fmt.Errorf("%w: netcheck: %v", ErrValidationFailed, err)
		}
		if res.Ok() {
			return nil
		}
		if res.Overflowed && len(res.Findings) == 0 {
			return fmt.Errorf("%w: netcheck: symbolic budget exhausted after %d classes",
				ErrValidationFailed, res.Classes)
		}
		f := res.Findings[0]
		return fmt.Errorf("%w: netcheck: %d findings; first: %s (host %d, ingress %d): %s",
			ErrValidationFailed, len(res.Findings), f.Kind, f.Host, f.Ingress, f.Message)
	}
}

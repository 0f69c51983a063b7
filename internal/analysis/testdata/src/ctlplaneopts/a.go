// Package ctlplaneopts is a fixture for the camus-options analyzer:
// seeded direct construction of the control plane outside
// internal/ctlplane — Config literals.
package ctlplaneopts

import (
	"camus/internal/ctlplane"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/topology"
)

func configLiteral(net *topology.Network, sp *spec.Spec) ctlplane.Config {
	return ctlplane.Config{Net: net, Spec: sp} // want `composite literal of ctlplane\.Config bypasses the functional options`
}

func configPointer() *ctlplane.Config {
	return &ctlplane.Config{MaxPending: 64} // want `composite literal of ctlplane\.Config bypasses the functional options`
}

func sanctioned(net *topology.Network, sp *spec.Spec) (*ctlplane.Service, error) {
	return ctlplane.New(net, sp,
		ctlplane.WithRetry(0, 0, 4),
		ctlplane.WithQueueDepth(64))
}

func sanctionedReconciler(net *topology.Network, sp *spec.Spec) (*ctlplane.Reconciler, error) {
	return ctlplane.NewReconcilerWith(net, sp,
		ctlplane.WithRouting(routing.Options{Policy: routing.TrafficReduction}))
}

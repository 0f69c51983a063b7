// Package facadeopts is a fixture for the camus-options analyzer:
// seeded construction of the control plane and daemon through the
// camus facade that bypasses NewControlPlane / NewDaemon. The facade
// types are aliases (ControlPlane = ctlplane.Service, Daemon =
// server.Daemon), so the analyzer must see through them.
package facadeopts

import (
	"camus/camus"
	"camus/internal/ctlplane"
	"camus/internal/ctlplane/server"
)

func bareControlPlane() *camus.ControlPlane {
	return &camus.ControlPlane{} // want `composite literal of the control-plane Service bypasses its apply workers`
}

func bareService() ctlplane.Service {
	return ctlplane.Service{} // want `composite literal of the control-plane Service bypasses its apply workers`
}

func bareDaemon() *camus.Daemon {
	return &camus.Daemon{} // want `composite literal of the control-plane Daemon bypasses log replay`
}

func bareServerDaemon() *server.Daemon {
	return &server.Daemon{} // want `composite literal of the control-plane Daemon bypasses log replay`
}

func configThroughFacade(net *camus.Network, sp *camus.Spec) ctlplane.Config {
	return ctlplane.Config{Net: net, Spec: sp} // want `composite literal of ctlplane\.Config bypasses the functional options`
}

func sanctioned(net *camus.Network, sp *camus.Spec) (*camus.ControlPlane, error) {
	return camus.NewControlPlane(net, sp,
		camus.WithPolicy(camus.TrafficReduction, 0),
		camus.WithQueueDepth(64))
}

func sanctionedDaemon(net *camus.Network, sp *camus.Spec) (*camus.Daemon, error) {
	return camus.NewDaemon(net, sp,
		camus.WithDaemonService(camus.WithQueueDepth(64)))
}

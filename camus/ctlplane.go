package camus

import (
	"camus/internal/analysis/fitcheck"
	"camus/internal/ctlplane"
	"camus/internal/ctlplane/server"
	"camus/internal/routing"
)

// Control-plane surface, re-exported so examples and commands never
// import internal/ctlplane directly. The shape mirrors the dataplane
// facade: construct with functional options, read counters via
// snapshots.
type (
	// ControlPlane is the live subscription-churn service: per-switch
	// incremental compile + atomic install with coalescing, retries and
	// translation validation. Construct with NewControlPlane.
	ControlPlane = ctlplane.Service
	// ControlPlaneOption configures NewControlPlane, in the style of
	// SwitchOption.
	ControlPlaneOption = ctlplane.Option
	// CtlSnapshot is an immutable view of control-plane counters.
	CtlSnapshot = ctlplane.Snapshot
	// LatencyStats summarizes event→all-switches-applied latency.
	LatencyStats = ctlplane.LatencyStats
	// CtlEvent tracks one subscription change to full rollout.
	CtlEvent = ctlplane.Event
	// Installer applies compiled programs to a live switch.
	Installer = ctlplane.Installer
	// Validator certifies compiled programs before install.
	Validator = ctlplane.Validator
	// NetValidator certifies whole-deployment delivery invariants at
	// quiescent points.
	NetValidator = ctlplane.NetValidator
	// HostFilter is one live (filter, host) pair handed to a
	// NetValidator.
	HostFilter = ctlplane.HostFilter

	// FitModel is the static pipeline-fit admission model: a cached
	// fitcheck analyzer over installed programs. Construct with
	// NewFitModel (default Tofino-class budget) or
	// NewFitModelWith(budget).
	FitModel = fitcheck.Model
	// FitBudget is the per-stage/per-pipeline capacity envelope a
	// FitModel checks against.
	FitBudget = fitcheck.Budget

	// Tenants layers namespaces, quotas, token-bucket admission and
	// round-robin fairness over a ControlPlane.
	Tenants = ctlplane.Tenants
	// TenantOption configures NewTenants.
	TenantOption = ctlplane.TenantOption
	// TenantQuota bounds one tenant's footprint.
	TenantQuota = ctlplane.TenantQuota
	// TenantSnapshot is an immutable view of one tenant's counters.
	TenantSnapshot = ctlplane.TenantSnapshot

	// EventLog is the durable append-only control-plane log.
	EventLog = ctlplane.Log
	// EventLogRecord is one durable control-plane event.
	EventLogRecord = ctlplane.LogRecord

	// Daemon is the assembled control-plane server (service + tenancy +
	// log + HTTP API). Construct with NewDaemon.
	Daemon = server.Daemon
	// DaemonOption configures NewDaemon.
	DaemonOption = server.Option
)

// Control-plane construction options.
var (
	// WithInstallers wires live apply targets by switch ID.
	WithInstallers = ctlplane.WithInstallers
	// WithQueueDepth bounds in-flight events (backpressure).
	WithQueueDepth = ctlplane.WithQueueDepth
	// WithApplyHook injects a pre-install hook (fault injection).
	WithApplyHook = ctlplane.WithApplyHook
	// WithValidator certifies compiled programs, sampling every Nth batch.
	WithValidator = ctlplane.WithValidator
	// WithNetValidator certifies network-wide delivery invariants at
	// quiescent points, sampling every Nth quiescence.
	WithNetValidator = ctlplane.WithNetValidator
	// WithSeed makes retry jitter reproducible.
	WithSeed = ctlplane.WithSeed
	// WithCovering enables subsumption-aware state reduction: filters
	// implied by a broader filter on the same port get no table entry
	// of their own, and unsubscribing a covering filter re-installs
	// its children in the same atomic batch (no delivery gap).
	WithCovering = ctlplane.WithCovering
	// WithAdmission enables static resource admission: every Subscribe
	// is fit-checked against the model before any registry mutation,
	// and oversized deltas fail with ErrAdmissionRejected, leaving all
	// control-plane state untouched.
	WithAdmission = ctlplane.WithAdmission
	// NewFitModel builds a FitModel with the default Tofino-class
	// budget.
	NewFitModel = fitcheck.NewModel
	// NewFitModelWith builds a FitModel with an explicit budget.
	NewFitModelWith = fitcheck.NewModelWith
	// DefaultFitBudget is the default Tofino-class FitBudget.
	DefaultFitBudget = fitcheck.DefaultBudget
	// ProveValidator builds a translation-validation Validator.
	ProveValidator = ctlplane.ProveValidator
	// NetcheckValidator builds a NetValidator that symbolically verifies
	// exact, loop-free delivery over the whole fat tree.
	NetcheckValidator = ctlplane.NetcheckValidator

	// WithDefaultQuota sets the quota for auto-created tenants.
	WithDefaultQuota = ctlplane.WithDefaultQuota
	// WithAutoCreate creates tenants on first use.
	WithAutoCreate = ctlplane.WithAutoCreate
	// WithEventLog attaches a durable log to a Tenants layer.
	WithEventLog = ctlplane.WithEventLog
	// NewTenants builds the tenancy layer over a ControlPlane.
	NewTenants = ctlplane.NewTenants

	// OpenEventLog opens (or resumes) a durable event log.
	OpenEventLog = ctlplane.OpenLog

	// WithDaemonEventLog opens + replays a durable log inside NewDaemon.
	WithDaemonEventLog = server.WithEventLog
	// WithDaemonService forwards ControlPlaneOptions to the daemon's
	// service.
	WithDaemonService = server.WithService
	// WithDaemonTenancy forwards TenantOptions to the daemon's tenancy
	// layer.
	WithDaemonTenancy = server.WithTenancy
)

// Control-plane error classes (match with errors.Is).
var (
	// ErrUnknownTenant marks operations on a tenant never created.
	ErrUnknownTenant = ctlplane.ErrUnknownTenant
	// ErrQuotaExceeded marks a subscribe past MaxSubscriptions.
	ErrQuotaExceeded = ctlplane.ErrQuotaExceeded
	// ErrRateLimited marks an empty token bucket.
	ErrRateLimited = ctlplane.ErrRateLimited
	// ErrAdmissionRejected marks a subscribe the fit model refused:
	// the predicted entry delta would overflow a switch pipeline.
	ErrAdmissionRejected = ctlplane.ErrAdmissionRejected
)

// NewControlPlane builds the live control plane for a network and
// starts one apply worker per switch:
//
//	svc, err := camus.NewControlPlane(net, app.Spec,
//	    camus.WithPolicy(camus.TrafficReduction, 0),
//	    camus.WithInstallers(sim.Installers()...))
func NewControlPlane(net *Network, sp *Spec, opts ...ControlPlaneOption) (*ControlPlane, error) {
	return ctlplane.New(net, sp, opts...)
}

// WithPolicy selects the routing policy and discretization α for a
// control plane (the facade cousin of DeployOptions).
func WithPolicy(p routing.Policy, alpha int64) ControlPlaneOption {
	return ctlplane.WithRouting(routing.Options{Policy: p, Alpha: alpha})
}

// NewDaemon assembles the multi-tenant control-plane daemon: service,
// tenancy layer, optional durable log (replayed before serving), and
// the HTTP+JSON API with /metrics and /healthz:
//
//	d, err := camus.NewDaemon(net, app.Spec,
//	    camus.WithDaemonEventLog("camusd.log"),
//	    camus.WithDaemonService(camus.WithInstallers(sim.Installers()...)),
//	    camus.WithDaemonTenancy(camus.WithAutoCreate()))
//	addr, err := d.Start(":8080")
func NewDaemon(net *Network, sp *Spec, opts ...DaemonOption) (*Daemon, error) {
	return server.New(net, sp, opts...)
}

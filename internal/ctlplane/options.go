package ctlplane

import (
	"camus/internal/analysis/fitcheck"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/topology"
)

// Option configures the control plane at construction time, in the
// style of camus.SwitchOption: the resulting configuration is frozen
// into the Service (or Reconciler), so no caller can reach racy mutable
// state after start. Construct services with New and synchronous
// reconcilers with NewReconcilerWith; config is the Option target.
type Option func(*config)

// WithRouting selects the routing policy (MR/TR) and discretization α.
func WithRouting(ro routing.Options) Option {
	return func(c *config) { c.Routing = ro }
}

// WithInstallers wires live apply targets by switch ID; nil entries
// leave a switch compile-only.
func WithInstallers(ins ...Installer) Option {
	return func(c *config) { c.Installers = ins }
}

// WithQueueDepth bounds in-flight subscription events; Subscribe and
// Unsubscribe block when the queue is full (backpressure). Default
// 1024.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.MaxPending = n }
}

// WithApplyHook runs fn before every install attempt — the
// fault-injection point for retry/backoff tests. Returning an error
// fails the attempt.
func WithApplyHook(fn func(sw, attempt int) error) Option {
	return func(c *config) { c.ApplyHook = fn }
}

// WithValidator certifies each freshly compiled program against the
// switch's surviving rule set before the install (see ProveValidator).
// every samples validation under churn: each switch validates every
// Nth compiled batch (and always the first); values ≤ 1 validate every
// batch.
func WithValidator(v Validator, every int) Option {
	return func(c *config) {
		c.Validator = v
		c.ValidateEvery = every
	}
}

// WithNetValidator certifies the whole deployment's delivery
// invariants at quiescent points (see NetcheckValidator): whenever the
// in-flight event count returns to zero, the per-switch programs and
// the live filter registry form a consistent cut that is handed to v.
// every samples the runs: every Nth quiescence (and always the first);
// values ≤ 1 validate every quiescence. Failures are counted in the
// Snapshot (NetValidationFailures) and surfaced by camusd's /healthz;
// they do not roll back installed epochs.
func WithNetValidator(v NetValidator, every int) Option {
	return func(c *config) {
		c.NetValidator = v
		c.NetValidateEvery = every
	}
}

// WithCovering enables subsumption-aware state reduction: per (switch,
// port), filters implied by a broader filter already forwarding
// through the same port get no table entry of their own — they are
// tracked as refcounted covered obligations in a subsumption forest
// (BDD implication decides f ⊑ g). Unsubscribing a covering filter
// uncovers its children: the delete and their re-installs are emitted
// in one coalesced batch, so the atomic epoch swap leaves no window in
// which a still-subscribed filter lacks a covering entry. Delivery is
// provably unchanged — forwarding through a port is the union of its
// filters, and f ⊑ g makes f ∪ g = g — and `camusc netcheck -covering`
// certifies it end to end. Each two-filter implication diagram is
// bounded by cover.DefaultMaxNodes; oversized queries conservatively
// count as "not implied".
func WithCovering() Option {
	return func(c *config) { c.Covering = true }
}

// WithAdmission enables static resource admission: before any registry
// mutation, every Subscribe is fit-checked against the model — the
// predicted per-switch entry delta (Reconciler.PredictAdd ×
// fitcheck.EntryEstimate) must fit within each affected switch's
// remaining pipeline headroom (fitcheck.Model.Admit over the installed
// program's layout). Oversized deltas fail with ErrAdmissionRejected
// and leave the registry, forests, and installed programs untouched.
// Composes with WithCovering: filters the forests would elide predict
// zero new entries and pass through. Snapshot gains
// AdmissionChecks/AdmissionRejects counters plus the
// FitHeadroomEntries/FitStageSRAMPct gauges. Pass fitcheck.NewModel()
// for the default Tofino-class budget.
func WithAdmission(m *fitcheck.Model) Option {
	return func(c *config) { c.Admission = m }
}

// WithSeed makes retry jitter reproducible (0 seeds from switch IDs
// only).
func WithSeed(seed int64) Option {
	return func(c *config) { c.Seed = seed }
}

// NewReconcilerWith builds the synchronous placement/compile core
// without the async Service on top (single-threaded callers such as
// bench's replayUpdate). Only WithRouting and WithCovering are
// meaningful here; the queue option applies to the Service layer.
func NewReconcilerWith(net *topology.Network, sp *spec.Spec, opts ...Option) (*Reconciler, error) {
	cfg := config{Net: net, Spec: sp}
	for _, fn := range opts {
		fn(&cfg)
	}
	return newReconciler(cfg.withDefaults())
}

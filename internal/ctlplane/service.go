package ctlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"camus/internal/analysis/fitcheck"
	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// Installer is a live apply target for one switch's program — satisfied
// structurally by *pipeline.Switch (Install under the switch lock). A nil
// installer makes the switch compile-only.
type Installer interface {
	Install(p *compiler.Program) error
}

// ErrClosed is returned for events submitted after Close.
var ErrClosed = errors.New("ctlplane: service closed")

// ErrAdmissionRejected is returned by Subscribe when the admission
// model (WithAdmission) predicts the delta would overflow a switch's
// pipeline. The registry is untouched: nothing was added, nothing needs
// rolling back.
var ErrAdmissionRejected = errors.New("ctlplane: admission rejected: pipeline would overflow")

// ErrApplyFailed marks an event whose switch apply exhausted its
// retries.
var ErrApplyFailed = errors.New("ctlplane: apply failed after retries")

// Apply retries back off exponentially from retryBase to retryMax (±50%
// jitter) and give up after maxRetries attempts per batch.
const (
	retryBase  = time.Millisecond
	retryMax   = 100 * time.Millisecond
	maxRetries = 8
)

// config configures a Service: the target the Options passed to New
// (WithRouting, WithQueueDepth, WithApplyHook, ...) apply to. It is
// unexported, so options are the only way to set it.
type config struct {
	Net  *topology.Network
	Spec *spec.Spec
	// Routing selects the policy (MR/TR) and discretization α.
	Routing routing.Options
	// Installers by switch ID; nil entries leave a switch compile-only.
	Installers []Installer
	// MaxPending bounds in-flight subscription events, running network
	// validations included; Subscribe and Unsubscribe block while the
	// queue is full (backpressure). Default 1024.
	MaxPending int
	// ApplyHook, when set, runs before every install attempt — the
	// fault-injection point for retry/backoff tests. Returning an error
	// fails the attempt.
	ApplyHook func(sw, attempt int) error
	// Validator, when set, certifies each freshly compiled program
	// against the switch's surviving rule set before the install (see
	// ProveValidator for the translation-validation hookup). An error
	// fails the whole batch without installing, leaving the switch on
	// its previous epoch.
	Validator Validator
	// ValidateEvery samples validation under churn: each switch
	// validates every Nth compiled batch (and always the first). Values
	// ≤ 1 validate every batch.
	ValidateEvery int
	// NetValidator, when set, certifies the whole deployment's delivery
	// invariants at quiescent points — whenever the in-flight event
	// count returns to zero, the switch programs and the filter
	// registry form a consistent cut and are handed to the validator
	// (see NetcheckValidator). Failures are counted in the Snapshot;
	// they do not roll back the installed epoch.
	NetValidator NetValidator
	// NetValidateEvery samples network validation: every Nth quiescence
	// (and always the first). Values ≤ 1 validate every quiescence.
	NetValidateEvery int
	// Seed makes retry jitter reproducible (0 seeds from switch IDs
	// only).
	Seed int64
	// Covering enables subsumption-aware state reduction (see
	// WithCovering).
	Covering bool
	// Admission, when set, statically fit-checks every subscribe before
	// any registry mutation (see WithAdmission): the predicted
	// per-switch entry delta must fit each switch's remaining pipeline
	// headroom or the subscribe fails with ErrAdmissionRejected,
	// leaving registry, forests, and installed programs untouched.
	Admission *fitcheck.Model
}

func (c config) withDefaults() config {
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	return c
}

// Event tracks one subscription change from submission to the moment
// every affected switch runs the new epoch. remaining, failed and end
// (the completion time) are guarded by Service.mu until done is closed.
type Event struct {
	start     time.Time
	end       time.Time
	remaining int
	failed    bool
	done      chan struct{}
}

// Done is closed when the event has been applied to (or failed on)
// every affected switch. Events touching no switch complete
// immediately.
func (e *Event) Done() <-chan struct{} { return e.done }

// Err reports ErrApplyFailed if any switch exhausted its retries. It
// returns nil until Done is closed.
func (e *Event) Err() error {
	select {
	case <-e.done:
		if e.failed {
			return ErrApplyFailed
		}
	default:
	}
	return nil
}

// swQueue is one switch's pending coalesced work (level-triggered: the
// worker drains everything queued since its last pass in one compile)
// and what that work last produced: the compiled program and the size
// of the engine that compiled it (nodes, memo entries, bytes). Every
// field but notify is guarded by Service.mu.
type swQueue struct {
	ops                []RuleOp
	events             []*Event
	notify             chan struct{}
	prog               *compiler.Program
	nodes, memo, bytes int64
}

// Service is the long-running control plane: it owns the Reconciler,
// one apply worker per switch, and the end-to-end telemetry. One mutex,
// mu, guards everything submitters, workers and readers share: the
// Reconciler's registry, the queues and the programs they produced, the
// in-flight count, the counters and the latency record. Workers compile, validate and
// install outside it; each switch's compile state belongs to its
// worker.
type Service struct {
	cfg config
	rec *Reconciler

	mu sync.Mutex
	// cond is broadcast whenever inflight or netRunning falls and on
	// Close: submitters wait on it for queue room, Quiesce for zero.
	cond     *sync.Cond
	inflight int
	queues   []*swQueue
	// stats holds the counters; Stats fills in the gauges.
	stats Snapshot
	// latency is the event→applied record.
	latency latencyRecord
	// netQuiescences counts inflight→0 transitions and netRunning the
	// network validations still executing; each holds its event's
	// queue slot until it ends.
	netQuiescences int
	netRunning     int
	// closing is set by Close: every later submission fails. closed is
	// closed once, right after, to stop the workers.
	closing bool
	closed  chan struct{}
	wg      sync.WaitGroup
}

// New builds the control plane for a network and starts one apply
// worker per switch:
//
//	svc, err := ctlplane.New(net, spec,
//	    ctlplane.WithRouting(ropts),
//	    ctlplane.WithInstallers(sim.Installers()...),
//	    ctlplane.WithValidator(ctlplane.ProveValidator(net), 16))
//
// Close must be called to stop the workers.
func New(net *topology.Network, sp *spec.Spec, opts ...Option) (*Service, error) {
	cfg := config{Net: net, Spec: sp}
	for _, fn := range opts {
		fn(&cfg)
	}
	cfg = cfg.withDefaults()
	rec, err := newReconciler(cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, rec: rec, closed: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.queues = make([]*swQueue, len(cfg.Net.Switches))
	for sw := range s.queues {
		q := &swQueue{notify: make(chan struct{}, 1), prog: rec.Program(sw)}
		q.nodes, q.memo, q.bytes = rec.EngineSize(sw)
		s.queues[sw] = q
	}
	for sw := range s.queues {
		s.wg.Add(1)
		go s.applyWorker(sw)
	}
	// The MR static up-port rules were registered by the Reconciler;
	// flush them through the normal apply path so installers start from
	// a live (possibly empty) program.
	if _, err := s.submit(func() (ops []RuleOp, err error) {
		return s.initialOps(), nil
	}, nil); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// initialOps re-emits install ops for rules registered before any event
// (the MR constant-true rules) so every installer receives a first
// program.
func (s *Service) initialOps() []RuleOp {
	var ops []RuleOp
	for _, sc := range s.rec.switches {
		for _, pr := range sc.places {
			if _, live := sc.rules[pr.ruleID]; !live {
				ops = append(ops, RuleOp{Switch: sc.id, Add: true, Rule: pr.rule, RuleID: pr.ruleID})
			}
		}
	}
	return ops
}

// Subscribe installs filters for a host and returns the event handle
// plus the assigned filter IDs. It blocks while the pending-event queue
// is full.
func (s *Service) Subscribe(host int, exprs []subscription.Expr) (*Event, []int, error) {
	var ids []int
	ev, err := s.submit(func() ([]RuleOp, error) {
		// Admission runs before the first AddFilter: a rejection must
		// leave the registry, forests, and live programs untouched —
		// rolling back a partial add under covering would mint new rule
		// IDs, so the only safe reject is one that never mutates.
		if s.cfg.Admission != nil {
			if err := s.admit(host, exprs); err != nil {
				return nil, err
			}
		}
		var all []RuleOp
		for _, e := range exprs {
			id, ops, err := s.rec.AddFilter(host, e)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
			all = append(all, ops...)
		}
		return all, nil
	}, &s.stats.Subscribes)
	return ev, ids, err
}

// admit statically fit-checks a subscribe batch against every affected
// switch: the predicted new-rule count (Reconciler.PredictAdd) times a
// conservative per-filter entry bound (fitcheck.EntryEstimate) must fit
// the switch's remaining headroom. Called under s.mu with no prior
// mutation, so a rejection needs no rollback.
func (s *Service) admit(host int, exprs []subscription.Expr) error {
	s.stats.AdmissionChecks++
	need := make(map[int]int)
	for _, e := range exprs {
		adds, err := s.rec.PredictAdd(host, e)
		if err != nil {
			return err
		}
		per := fitcheck.EntryEstimate(e)
		for sw, n := range adds {
			need[sw] += n * per
		}
	}
	for sw, n := range need {
		if err := s.cfg.Admission.Admit(s.queues[sw].prog, n); err != nil {
			s.stats.AdmissionRejects++
			return fmt.Errorf("%w: switch %d: %v", ErrAdmissionRejected, sw, err)
		}
	}
	return nil
}

// Unsubscribe removes a host's filters by ID.
func (s *Service) Unsubscribe(host int, ids []int) (*Event, error) {
	return s.submit(func() ([]RuleOp, error) {
		var all []RuleOp
		for _, id := range ids {
			ops, err := s.rec.RemoveFilter(host, id)
			if err != nil {
				return nil, err
			}
			all = append(all, ops...)
		}
		return all, nil
	}, &s.stats.Unsubscribes)
}

// submit waits for queue room, runs a registry mutation under the lock,
// fans its rule ops out to the per-switch queues, and returns the
// tracking event. kind is the counter the event adds to.
func (s *Service) submit(mutate func() ([]RuleOp, error), kind *int64) (*Event, error) {
	s.mu.Lock()
	for !s.closing && s.inflight+s.netRunning >= s.cfg.MaxPending {
		s.cond.Wait()
	}
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	ops, err := mutate()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	ev := &Event{start: time.Now(), done: make(chan struct{})}
	s.stats.Events++
	if kind != nil {
		*kind++
	}
	s.inflight++
	s.stats.PeakQueueDepth = max(s.stats.PeakQueueDepth, s.inflight)
	dirty := make(map[int]bool)
	for _, op := range ops {
		q := s.queues[op.Switch]
		q.ops = append(q.ops, op)
		if !dirty[op.Switch] {
			dirty[op.Switch] = true
			q.events = append(q.events, ev)
		}
	}
	ev.remaining = len(dirty)
	s.stats.SwitchesTouched += int64(len(dirty))
	var netRun func()
	if len(dirty) == 0 {
		netRun = s.completeLocked([]*Event{ev})
	}
	s.mu.Unlock()

	if len(dirty) == 0 {
		close(ev.done)
		if netRun != nil {
			netRun()
		}
	}
	// Level-triggered: a full channel already guarantees a future drain.
	for sw := range dirty {
		select {
		case s.queues[sw].notify <- struct{}{}:
		default:
		}
	}
	return ev, nil
}

// completeLocked records completed events — latency, Applied, the
// in-flight count — under s.mu. When the last in-flight event leaves,
// the switch programs and the filter registry are a consistent cut: a
// sampled one is snapshotted here and the returned function runs the
// (expensive) network validator on it after the caller unlocks. It
// returns nil when there is nothing to validate.
func (s *Service) completeLocked(done []*Event) func() {
	if len(done) == 0 {
		return nil
	}
	for _, ev := range done {
		ev.end = time.Now()
		s.latency.add(float64(ev.end.Sub(ev.start).Nanoseconds()))
		s.inflight--
		s.stats.Applied++
	}
	s.cond.Broadcast()
	if s.inflight > 0 || s.cfg.NetValidator == nil {
		return nil
	}
	n := s.netQuiescences
	s.netQuiescences++
	if s.cfg.NetValidateEvery > 1 && n%s.cfg.NetValidateEvery != 0 {
		return nil
	}
	progs := make([]*compiler.Program, len(s.queues))
	for i, q := range s.queues {
		progs[i] = q.prog
	}
	filters := s.rec.HostFilters()
	s.netRunning++
	return func() {
		err := s.cfg.NetValidator(progs, filters)
		s.mu.Lock()
		s.stats.NetValidations++
		if err != nil {
			s.stats.NetValidationFailures++
		}
		s.netRunning--
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// finish accounts one drained batch of a switch in one critical
// section: the batch's counts d, the program it compiled (nil when the
// compile failed) and the engine's size, and every event it
// carried — completing those whose last switch this was. Done channels
// close, and a sampled network validation runs, after unlocking.
func (s *Service) finish(sw int, events []*Event, prog *compiler.Program, d *Snapshot, failed bool) {
	nodes, memo, bytes := s.rec.EngineSize(sw)
	s.mu.Lock()
	st := &s.stats
	st.Batches += d.Batches
	st.Installs += d.Installs
	st.Deletes += d.Deletes
	st.Keeps += d.Keeps
	st.SwitchesChanged += d.SwitchesChanged
	st.Retries += d.Retries
	st.Fallbacks += d.Fallbacks
	st.Compactions += d.Compactions
	st.Failures += d.Failures
	st.Validations += d.Validations
	st.ValidationFailures += d.ValidationFailures
	q := s.queues[sw]
	if prog != nil {
		q.prog = prog
	}
	q.nodes, q.memo, q.bytes = nodes, memo, bytes
	// The worker owns events now, so the completed ones are collected
	// in place.
	done := events[:0]
	for _, ev := range events {
		ev.failed = ev.failed || failed
		if ev.remaining--; ev.remaining == 0 {
			done = append(done, ev)
		}
	}
	netRun := s.completeLocked(done)
	s.mu.Unlock()
	for _, ev := range done {
		close(ev.done)
	}
	if netRun != nil {
		netRun()
	}
}

// applyWorker is one switch's apply loop: drain the coalesced op queue,
// compile once, validate and install with retry/backoff, account the
// batch.
func (s *Service) applyWorker(sw int) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(s.cfg.Seed*0x9E3779B9 + int64(sw) + 1))
	q := s.queues[sw]
	batchNo := 0
	// installed is the program this switch last installed successfully.
	var installed *compiler.Program
	for {
		s.mu.Lock()
		ops, events := q.ops, q.events
		q.ops, q.events = nil, nil
		s.mu.Unlock()

		if len(ops) == 0 {
			select {
			case <-s.closed:
				return
			case <-q.notify:
				continue
			}
		}

		var d Snapshot
		res, err := s.rec.Compile(sw, ops)
		if err != nil {
			d.Failures = 1
			s.finish(sw, events, nil, &d, true)
			continue
		}
		d.Batches = 1
		d.Installs, d.Deletes, d.Keeps = int64(res.AddedEntries), int64(res.RemovedEntries), int64(res.ReusedEntries)
		if res.AddedEntries+res.RemovedEntries > 0 {
			d.SwitchesChanged = 1
		}
		if res.Full {
			d.Fallbacks = 1
		}
		if res.Compacted {
			d.Compactions = 1
		}
		// The incremental compiler hands back the same *Program when the
		// batch left the merged diagram unchanged. The switch already runs
		// it: a reinstall would only advance its epoch, and every cached
		// flow — stream continuations included — would miss.
		ok := true
		if res.Program != installed {
			ok = s.install(sw, res.Program, batchNo, rng, &d)
			batchNo++
			if ok {
				installed = res.Program
			}
		}
		s.finish(sw, events, res.Program, &d, !ok)
	}
}

// install validates a freshly compiled program (every ValidateEvery-th
// batch, counting from batchNo 0) and pushes it to the switch with
// exponential backoff + jitter on injected failures, counting into d.
// Returns false when validation fails, retries are exhausted or the
// service closes mid-retry.
func (s *Service) install(sw int, prog *compiler.Program, batchNo int, rng *rand.Rand, d *Snapshot) bool {
	// Post-compile, pre-install translation validation. The worker owns
	// this switch's compile state, so rec.Rules(sw) is the exact
	// survivor set the batch produced.
	if s.cfg.Validator != nil && (s.cfg.ValidateEvery <= 1 || batchNo%s.cfg.ValidateEvery == 0) {
		d.Validations++
		if err := s.cfg.Validator(sw, prog, s.rec.Rules(sw)); err != nil {
			d.ValidationFailures++
			d.Failures++
			return false
		}
	}
	var target Installer
	if sw < len(s.cfg.Installers) {
		target = s.cfg.Installers[sw]
	}
	for attempt := 0; ; attempt++ {
		err := func() error {
			if s.cfg.ApplyHook != nil {
				if herr := s.cfg.ApplyHook(sw, attempt); herr != nil {
					return herr
				}
			}
			if target == nil {
				return nil
			}
			return target.Install(prog)
		}()
		if err == nil {
			return true
		}
		if attempt+1 >= maxRetries {
			d.Failures++
			return false
		}
		d.Retries++
		backoff := min(retryBase<<attempt, retryMax)
		// ±50% jitter decorrelates retry storms across switches.
		backoff = backoff/2 + time.Duration(rng.Int63n(int64(backoff)+1))
		select {
		case <-s.closed:
			return false
		case <-time.After(backoff):
		}
	}
}

// Quiesce blocks until every submitted event has been applied (or
// failed) and any in-progress network validation has finished.
func (s *Service) Quiesce() {
	s.mu.Lock()
	for s.inflight > 0 || s.netRunning > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Program returns the program a switch's last finished batch compiled
// (the control plane's view; the switch itself may still be applying
// it, or have refused it). Once an event's Done is closed, it is the
// program that event's batch compiled, or a later one.
func (s *Service) Program(sw int) *compiler.Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queues[sw].prog
}

// Spec returns the message spec the control plane compiles against
// (the Tenants replay path re-parses logged filter sources with it).
func (s *Service) Spec() *spec.Spec { return s.cfg.Spec }

// Net returns the topology the control plane places subscriptions on.
func (s *Service) Net() *topology.Network { return s.cfg.Net }

// Filters returns a host's live filter IDs.
func (s *Service) Filters(host int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Filters(host)
}

// HostFilters returns every live (filter, host) pair — the same
// consistent cut a NetValidator is handed at quiescent points. Call
// Quiesce first for a converged view.
func (s *Service) HostFilters() []HostFilter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.HostFilters()
}

// CoveredFilters returns the live filter IDs whose access-port entry
// is elided under covering mode (nil when covering is off). Tenant
// accounting uses this to report per-tenant covered-subscription
// counts.
func (s *Service) CoveredFilters() map[int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.CoveredFilters()
}

// Close stops the apply workers. Every later Subscribe or Unsubscribe,
// and every one blocked on a full queue, returns ErrClosed. Pending
// batches not yet drained are abandoned; call Quiesce first for a clean
// shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	first := !s.closing
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if first {
		close(s.closed)
	}
	s.wg.Wait()
}

// String implements fmt.Stringer with a compact live summary.
func (s *Service) String() string {
	snap := s.Stats()
	return fmt.Sprintf("ctlplane{events=%d batches=%d +%d -%d =%d retries=%d fallbacks=%d}",
		snap.Events, snap.Batches, snap.Installs, snap.Deletes, snap.Keeps,
		snap.Retries, snap.Fallbacks)
}

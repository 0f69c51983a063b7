package ctlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// MaxPending bounds in-flight subscription events; Subscribe and
	// Unsubscribe block when the queue is full (backpressure). Default
	// 1024.
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
// every affected switch runs the new epoch.
type Event struct {
	start     time.Time
	remaining atomic.Int32
	failed    atomic.Bool
	done      chan struct{}
}

// Done is closed when the event has been applied to (or failed on)
// every affected switch. Events touching no switch complete
// immediately.
func (e *Event) Done() <-chan struct{} { return e.done }

// Err reports ErrApplyFailed if any switch exhausted its retries.
// Meaningful after Done is closed.
func (e *Event) Err() error {
	if e.failed.Load() {
		return ErrApplyFailed
	}
	return nil
}

// swQueue is one switch's pending coalesced work (level-triggered: the
// worker drains everything queued since its last pass in one compile).
type swQueue struct {
	ops     []RuleOp
	events  []*Event
	notify  chan struct{}
	started bool
}

// Service is the long-running control plane: it owns the Reconciler,
// one apply worker per switch, and the end-to-end telemetry.
type Service struct {
	cfg config
	rec *Reconciler

	mu        sync.Mutex
	quiesced  *sync.Cond
	inflight  int
	queues    []*swQueue
	peakDepth int
	// latency is the event→applied record.
	latency latencyRecord

	sem    chan struct{}
	closed chan struct{}
	wg     sync.WaitGroup

	events       atomic.Int64
	subscribes   atomic.Int64
	unsubscribes atomic.Int64
	batches      atomic.Int64
	installs     atomic.Int64
	deletes      atomic.Int64
	keeps        atomic.Int64
	retries      atomic.Int64
	fallbacks    atomic.Int64
	compactions  atomic.Int64
	failures     atomic.Int64
	applied      atomic.Int64

	// Update locality: switchesTouched counts, per event, the switches its
	// rule ops were queued on; switchesChanged the per-switch compiles
	// whose program came out with a non-empty entry delta.
	switchesTouched atomic.Int64
	switchesChanged atomic.Int64

	validations        atomic.Int64
	validationFailures atomic.Int64

	// netQuiescences counts inflight→0 transitions and netRunning the
	// network validations still executing (both under mu; Quiesce waits
	// for netRunning to drain so post-quiesce stats include them);
	// netValidations / netValidationFailures count sampled network
	// validator runs and their failures.
	netQuiescences        int
	netRunning            int
	netValidations        atomic.Int64
	netValidationFailures atomic.Int64

	// admissionChecks / admissionRejects count static fit checks run
	// before registry mutation (WithAdmission) and the subscribes
	// they refused.
	admissionChecks  atomic.Int64
	admissionRejects atomic.Int64
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
	s := &Service{
		cfg:    cfg,
		rec:    rec,
		sem:    make(chan struct{}, cfg.MaxPending),
		closed: make(chan struct{}),
	}
	s.quiesced = sync.NewCond(&s.mu)
	for range cfg.Net.Switches {
		s.queues = append(s.queues, &swQueue{notify: make(chan struct{}, 1)})
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
	}, &s.subscribes)
	return ev, ids, err
}

// admit statically fit-checks a subscribe batch against every affected
// switch: the predicted new-rule count (Reconciler.PredictAdd) times a
// conservative per-filter entry bound (fitcheck.EntryEstimate) must fit
// the switch's remaining headroom. Called under s.mu with no prior
// mutation, so a rejection needs no rollback.
func (s *Service) admit(host int, exprs []subscription.Expr) error {
	s.admissionChecks.Add(1)
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
		if err := s.cfg.Admission.Admit(s.rec.Program(sw), n); err != nil {
			s.admissionRejects.Add(1)
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
	}, &s.unsubscribes)
}

// submit runs a registry mutation under the lock, fans its rule ops out
// to the per-switch queues, and returns the tracking event.
func (s *Service) submit(mutate func() ([]RuleOp, error), kind *atomic.Int64) (*Event, error) {
	select {
	case <-s.closed:
		return nil, ErrClosed
	case s.sem <- struct{}{}:
	}
	ev := &Event{start: time.Now(), done: make(chan struct{})}

	s.mu.Lock()
	ops, err := mutate()
	if err != nil {
		s.mu.Unlock()
		<-s.sem
		return nil, err
	}
	s.events.Add(1)
	if kind != nil {
		kind.Add(1)
	}
	s.inflight++
	if s.inflight > s.peakDepth {
		s.peakDepth = s.inflight
	}
	dirty := make(map[int]bool)
	for _, op := range ops {
		q := s.queues[op.Switch]
		q.ops = append(q.ops, op)
		if !dirty[op.Switch] {
			dirty[op.Switch] = true
			q.events = append(q.events, ev)
		}
	}
	ev.remaining.Store(int32(len(dirty)))
	s.mu.Unlock()
	s.switchesTouched.Add(int64(len(dirty)))

	if len(dirty) == 0 {
		s.complete(ev)
		return ev, nil
	}
	for sw := range dirty {
		s.kick(sw)
	}
	return ev, nil
}

// kick nudges a switch worker (level-triggered; a full channel already
// guarantees a future drain). Workers start lazily on first use so
// idle switches cost nothing.
func (s *Service) kick(sw int) {
	q := s.queues[sw]
	if q.startWorker(s, sw) {
		return // freshly started worker drains immediately
	}
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// startWorker launches the switch's apply worker on first kick.
func (q *swQueue) startWorker(s *Service, sw int) bool {
	s.mu.Lock()
	if q.started {
		s.mu.Unlock()
		return false
	}
	q.started = true
	s.mu.Unlock()
	s.wg.Add(1)
	go s.applyWorker(sw)
	return true
}

// complete finishes an event's bookkeeping for one fully-applied (or
// failed) switch batch.
func (s *Service) complete(ev *Event) {
	if n := ev.remaining.Load(); n > 0 {
		return
	}
	s.mu.Lock()
	s.latency.add(float64(time.Since(ev.start).Nanoseconds()))
	s.inflight--
	s.applied.Add(1)
	// Quiescent cut: with no events in flight every worker is idle, so
	// the reconciler's programs and filter registry are consistent.
	// Snapshot them under the lock; run the (expensive) network
	// validator after releasing it.
	var netRun func()
	if s.inflight == 0 && s.cfg.NetValidator != nil {
		n := s.netQuiescences
		s.netQuiescences++
		if s.cfg.NetValidateEvery <= 1 || n%s.cfg.NetValidateEvery == 0 {
			progs := make([]*compiler.Program, len(s.cfg.Net.Switches))
			for i := range progs {
				progs[i] = s.rec.Program(i)
			}
			filters := s.rec.HostFilters()
			s.netRunning++
			netRun = func() {
				s.netValidations.Add(1)
				if err := s.cfg.NetValidator(progs, filters); err != nil {
					s.netValidationFailures.Add(1)
				}
				s.mu.Lock()
				s.netRunning--
				s.quiesced.Broadcast()
				s.mu.Unlock()
			}
		}
	}
	s.quiesced.Broadcast()
	s.mu.Unlock()
	close(ev.done)
	if netRun != nil {
		netRun()
	}
	<-s.sem
}

// finishSwitch decrements every event in a drained batch and completes
// those whose last switch this was.
func (s *Service) finishSwitch(events []*Event, failed bool) {
	for _, ev := range events {
		if failed {
			ev.failed.Store(true)
		}
		if ev.remaining.Add(-1) == 0 {
			s.complete(ev)
		}
	}
}

// applyWorker is one switch's apply loop: drain the coalesced op queue,
// compile once, install with retry/backoff, account telemetry.
func (s *Service) applyWorker(sw int) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(s.cfg.Seed*0x9E3779B9 + int64(sw) + 1))
	q := s.queues[sw]
	batchNo := 0
	// installed is the program this switch last installed successfully.
	var installed *compiler.Program
	for {
		s.mu.Lock()
		ops := q.ops
		events := q.events
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

		res, err := s.rec.Compile(sw, ops)
		if err != nil {
			s.failures.Add(1)
			s.finishSwitch(events, true)
			continue
		}
		s.batches.Add(1)
		s.installs.Add(int64(res.AddedEntries))
		s.deletes.Add(int64(res.RemovedEntries))
		s.keeps.Add(int64(res.ReusedEntries))
		if res.AddedEntries+res.RemovedEntries > 0 {
			s.switchesChanged.Add(1)
		}
		if res.Full {
			s.fallbacks.Add(1)
		}
		if res.Compacted {
			s.compactions.Add(1)
		}
		// The incremental compiler hands back the same *Program when the
		// batch left the merged diagram unchanged. The switch already runs
		// it: a reinstall would only advance its epoch, and every cached
		// flow — stream continuations included — would miss.
		if res.Program == installed {
			s.finishSwitch(events, false)
			continue
		}
		// Post-compile, pre-install translation validation. The worker
		// owns this switch's compile state, so rec.Rules(sw) is the
		// exact survivor set the batch produced.
		if s.cfg.Validator != nil && (s.cfg.ValidateEvery <= 1 || batchNo%s.cfg.ValidateEvery == 0) {
			s.validations.Add(1)
			if verr := s.cfg.Validator(sw, res.Program, s.rec.Rules(sw)); verr != nil {
				s.validationFailures.Add(1)
				s.failures.Add(1)
				batchNo++
				s.finishSwitch(events, true)
				continue
			}
		}
		batchNo++
		ok := s.install(sw, res.Program, rng)
		if ok {
			installed = res.Program
		}
		s.finishSwitch(events, !ok)
	}
}

// install pushes a program to the switch with exponential backoff +
// jitter on injected failures. Returns false when retries are
// exhausted or the service closes mid-retry.
func (s *Service) install(sw int, prog *compiler.Program, rng *rand.Rand) bool {
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
			s.failures.Add(1)
			return false
		}
		s.retries.Add(1)
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
		s.quiesced.Wait()
	}
	s.mu.Unlock()
}

// Program returns a switch's current compiled program (the control
// plane's view; the switch itself may still be applying it).
func (s *Service) Program(sw int) *compiler.Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Program(sw)
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

// Close stops the apply workers. Pending batches not yet drained are
// abandoned; call Quiesce first for a clean shutdown.
func (s *Service) Close() {
	select {
	case <-s.closed:
	default:
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

package ctlplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"camus/internal/subscription"
)

// Classified errors for the tenancy layer.
var (
	// ErrUnknownTenant is returned for operations on a tenant that was
	// never created (and auto-creation is off).
	ErrUnknownTenant = errors.New("ctlplane: unknown tenant")
	// ErrQuotaExceeded is returned when a subscribe would push a tenant
	// past its MaxSubscriptions quota.
	ErrQuotaExceeded = errors.New("ctlplane: subscription quota exceeded")
	// ErrRateLimited is returned when a tenant's token bucket is empty
	// (EventsPerSec admission control).
	ErrRateLimited = errors.New("ctlplane: event rate limit exceeded")
)

// TenantQuota bounds one tenant's control-plane footprint. Zero fields
// mean unlimited.
type TenantQuota struct {
	// MaxSubscriptions caps the tenant's live filter count.
	MaxSubscriptions int `json:"max_subscriptions,omitempty"`
	// EventsPerSec is the sustained admission rate for Subscribe /
	// Unsubscribe calls, enforced by a token bucket.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Burst is the bucket depth (default: EventsPerSec rounded up, at
	// least 1).
	Burst int `json:"burst,omitempty"`
}

func (q TenantQuota) burst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	if q.EventsPerSec >= 1 {
		return q.EventsPerSec
	}
	return 1
}

// TenantSnapshot is an immutable view of one tenant's counters, in the
// style of Snapshot.
type TenantSnapshot struct {
	Name  string      `json:"name"`
	Quota TenantQuota `json:"quota"`
	// Live is the tenant's current subscription count; Pending counts
	// admitted events waiting in the fairness queue.
	Live    int `json:"live"`
	Pending int `json:"pending"`
	// Covered counts live subscriptions whose access-port entry is
	// elided under covering mode (0 when covering is off).
	Covered int `json:"covered"`
	// Subscribes / Unsubscribes count dispatched events since start
	// (replayed history is not re-counted).
	Subscribes   int64 `json:"subscribes"`
	Unsubscribes int64 `json:"unsubscribes"`
	// RejectedQuota / RejectedRate count admissions refused by the
	// MaxSubscriptions quota and the token bucket respectively.
	RejectedQuota int64 `json:"rejected_quota"`
	RejectedRate  int64 `json:"rejected_rate"`
	// Latency is the tenant's admission→all-switches-applied
	// distribution (queue wait under round-robin fairness included).
	Latency LatencyStats `json:"-"`
}

// tenantOp is one admitted event waiting for its round-robin dispatch
// slot. exprs != nil marks a subscribe; otherwise ids names the
// filters to remove.
type tenantOp struct {
	host  int
	exprs []subscription.Expr
	ids   []int
	enq   time.Time

	ev     *Event
	outIDs []int
	err    error
	done   chan struct{}
}

// tenant is one namespace's registry + quota state.
type tenant struct {
	name  string
	quota TenantQuota

	tokens     float64
	lastRefill time.Time

	live     map[int]int // filter ID → host
	reserved int         // admitted subscribes not yet dispatched

	pending []*tenantOp

	subscribes    int64
	unsubscribes  int64
	rejectedQuota int64
	rejectedRate  int64
	latency       latencyRecord
}

// Tenants layers per-tenant namespaces, quota/rate admission, and
// round-robin fairness on top of a Service: every admitted event waits
// in its tenant's FIFO and a single dispatcher hands one event per
// tenant per turn to the underlying service, so a hostile neighbor
// flooding its own queue cannot starve other tenants of apply
// bandwidth — its backlog grows, theirs drains at the shared
// round-robin rate.
//
// With an attached event Log every dispatched event is appended (in
// dispatch order, the filter-ID assignment order) before the caller is
// released, and Replay reconstructs the full registry — refcounts and
// per-switch programs — from the log on startup.
type Tenants struct {
	svc        *Service
	def        TenantQuota
	autoCreate bool
	log        *Log

	mu       sync.Mutex
	byName   map[string]*tenant
	order    []string
	rrPos    int
	pendingN int
	logErr   error

	notify chan struct{}
	closed chan struct{}
	wg     sync.WaitGroup
}

// TenantOption configures the tenancy layer at construction time.
type TenantOption func(*Tenants)

// WithDefaultQuota sets the quota applied to auto-created tenants and
// CreateTenant calls with a zero quota.
func WithDefaultQuota(q TenantQuota) TenantOption {
	return func(t *Tenants) { t.def = q }
}

// WithAutoCreate creates tenants on first use with the default quota
// (the multi-thousand-tenant soak shape); without it, operations on
// unknown tenants fail with ErrUnknownTenant.
func WithAutoCreate() TenantOption {
	return func(t *Tenants) { t.autoCreate = true }
}

// WithEventLog attaches the durable event log. Call Replay before
// serving traffic to reconstruct prior state.
func WithEventLog(l *Log) TenantOption {
	return func(t *Tenants) { t.log = l }
}

// NewTenants builds the tenancy layer over a running Service and
// starts its dispatcher. Close stops the dispatcher; the Service and
// Log remain the caller's to close.
func NewTenants(svc *Service, opts ...TenantOption) *Tenants {
	t := &Tenants{
		svc:    svc,
		byName: make(map[string]*tenant),
		notify: make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	for _, fn := range opts {
		fn(t)
	}
	t.wg.Add(1)
	go t.dispatch()
	return t
}

// CreateTenant registers (or re-quotas) a tenant. A zero quota takes
// the layer default. The log record is appended under the same lock
// hold that mutates the registry, so log order always matches logical
// order (a quota update can never be logged after a "sub" it preceded).
func (t *Tenants) CreateTenant(name string, q TenantQuota) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrUnknownTenant)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tn := t.createLocked(name, q)
	return t.appendLogLocked(&LogRecord{Op: "tenant", Tenant: name, Quota: &tn.quota})
}

// createLocked registers name if absent and applies q (zero → layer
// default) to the tenant.
func (t *Tenants) createLocked(name string, q TenantQuota) *tenant {
	if q == (TenantQuota{}) {
		q = t.def
	}
	tn, ok := t.byName[name]
	if !ok {
		tn = &tenant{
			name:       name,
			live:       make(map[int]int),
			tokens:     q.burst(),
			lastRefill: time.Now(),
		}
		t.byName[name] = tn
		t.order = append(t.order, name)
	}
	tn.quota = q
	// Re-quota never refills the bucket — a tenant re-PUTting itself
	// before each subscribe must not mint fresh tokens. Existing
	// tokens only clamp down when the new burst is smaller.
	if b := q.burst(); tn.tokens > b {
		tn.tokens = b
	}
	return tn
}

// lookup resolves a tenant for an operation, auto-creating when
// enabled. created reports whether an auto-create happened (the caller
// must append its "tenant" log record before releasing t.mu, so the
// record provably precedes any of the tenant's event records).
func (t *Tenants) lookup(name string) (tn *tenant, created bool, err error) {
	if name == "" {
		return nil, false, fmt.Errorf("%w: empty name", ErrUnknownTenant)
	}
	tn, ok := t.byName[name]
	if ok {
		return tn, false, nil
	}
	if !t.autoCreate {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t.createLocked(name, TenantQuota{}), true, nil
}

// admit runs the token-bucket check for one event.
func (tn *tenant) admit(now time.Time) bool {
	if tn.quota.EventsPerSec <= 0 {
		return true
	}
	burst := tn.quota.burst()
	tn.tokens += now.Sub(tn.lastRefill).Seconds() * tn.quota.EventsPerSec
	if tn.tokens > burst {
		tn.tokens = burst
	}
	tn.lastRefill = now
	if tn.tokens < 1 {
		return false
	}
	tn.tokens--
	return true
}

// Subscribe admits one subscribe event for a tenant, waits for its
// round-robin dispatch slot, and returns the tracking event plus the
// assigned filter IDs. The call blocks while the tenant's queued
// events wait their turn — that wait is the fairness backpressure a
// flooding tenant feels.
func (t *Tenants) Subscribe(tenantName string, host int, exprs []subscription.Expr) (*Event, []int, error) {
	if len(exprs) == 0 {
		return nil, nil, fmt.Errorf("ctlplane: subscribe with no filters")
	}
	t.mu.Lock()
	tn, created, err := t.lookup(tenantName)
	if err != nil {
		t.mu.Unlock()
		return nil, nil, err
	}
	// Log the auto-create while still holding the lock: the dispatcher
	// cannot pop (and log) this tenant's first event until we release,
	// so the "tenant" record lands first even if this very call is
	// rejected below.
	if created {
		t.appendLogLocked(&LogRecord{Op: "tenant", Tenant: tenantName, Quota: &tn.quota})
	}
	if !tn.admit(time.Now()) {
		tn.rejectedRate++
		t.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: tenant %q over %.3g events/sec", ErrRateLimited, tenantName, tn.quota.EventsPerSec)
	}
	if q := tn.quota.MaxSubscriptions; q > 0 && len(tn.live)+tn.reserved+len(exprs) > q {
		tn.rejectedQuota++
		t.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: tenant %q at %d/%d subscriptions", ErrQuotaExceeded, tenantName, len(tn.live), q)
	}
	tn.reserved += len(exprs)
	op := &tenantOp{host: host, exprs: exprs, enq: time.Now(), done: make(chan struct{})}
	t.enqueueLocked(tn, op)
	t.mu.Unlock()
	return t.wait(op)
}

// Unsubscribe admits one unsubscribe event for filters the tenant
// owns.
func (t *Tenants) Unsubscribe(tenantName string, host int, ids []int) (*Event, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("ctlplane: unsubscribe with no ids")
	}
	t.mu.Lock()
	tn, created, err := t.lookup(tenantName)
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	if created {
		t.appendLogLocked(&LogRecord{Op: "tenant", Tenant: tenantName, Quota: &tn.quota})
	}
	if !tn.admit(time.Now()) {
		tn.rejectedRate++
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q over %.3g events/sec", ErrRateLimited, tenantName, tn.quota.EventsPerSec)
	}
	// Cross-tenant removal is refused before it can reach the shared
	// reconciler: the IDs must be this tenant's, on this host.
	for _, id := range ids {
		if h, ok := tn.live[id]; !ok || h != host {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: id %d not held by tenant %q host %d", ErrUnknownFilter, id, tenantName, host)
		}
	}
	op := &tenantOp{host: host, ids: ids, enq: time.Now(), done: make(chan struct{})}
	t.enqueueLocked(tn, op)
	t.mu.Unlock()
	ev, _, err := t.wait(op)
	return ev, err
}

func (t *Tenants) enqueueLocked(tn *tenant, op *tenantOp) {
	tn.pending = append(tn.pending, op)
	t.pendingN++
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

func (t *Tenants) wait(op *tenantOp) (*Event, []int, error) {
	select {
	case <-op.done:
		return op.ev, op.outIDs, op.err
	case <-t.closed:
		return nil, nil, ErrClosed
	}
}

// next pops the next event in round-robin tenant order, or nil when
// every queue is empty.
func (t *Tenants) next() (*tenant, *tenantOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pendingN == 0 || len(t.order) == 0 {
		return nil, nil
	}
	for i := 0; i < len(t.order); i++ {
		tn := t.byName[t.order[(t.rrPos+i)%len(t.order)]]
		if len(tn.pending) == 0 {
			continue
		}
		op := tn.pending[0]
		tn.pending = tn.pending[1:]
		t.pendingN--
		t.rrPos = (t.rrPos + i + 1) % len(t.order)
		return tn, op
	}
	return nil, nil
}

// dispatch is the fairness loop: one admitted event per tenant per
// turn reaches the underlying service, in tenant round-robin order.
func (t *Tenants) dispatch() {
	defer t.wg.Done()
	for {
		select {
		case <-t.closed:
			return
		default:
		}
		tn, op := t.next()
		if op == nil {
			select {
			case <-t.closed:
				return
			case <-t.notify:
				continue
			}
		}
		t.run(tn, op)
	}
}

// run executes one dispatched event against the service, appends its
// log record, and releases the waiting caller.
func (t *Tenants) run(tn *tenant, op *tenantOp) {
	if op.exprs != nil {
		ev, ids, err := t.svc.Subscribe(op.host, op.exprs)
		t.mu.Lock()
		tn.reserved -= len(op.exprs)
		if err == nil {
			tn.subscribes++
			for _, id := range ids {
				tn.live[id] = op.host
			}
		}
		t.mu.Unlock()
		if err == nil {
			srcs := make([]string, len(op.exprs))
			for i, e := range op.exprs {
				srcs[i] = e.String()
			}
			t.appendLog(&LogRecord{Op: "sub", Tenant: tn.name, Host: op.host, Filters: srcs, IDs: ids})
			t.observe(tn, op.enq, ev)
		}
		op.ev, op.outIDs, op.err = ev, ids, err
	} else {
		ev, err := t.svc.Unsubscribe(op.host, op.ids)
		t.mu.Lock()
		if err == nil {
			tn.unsubscribes++
			for _, id := range op.ids {
				delete(tn.live, id)
			}
		}
		t.mu.Unlock()
		if err == nil {
			t.appendLog(&LogRecord{Op: "unsub", Tenant: tn.name, Host: op.host, IDs: op.ids})
			t.observe(tn, op.enq, ev)
		}
		op.ev, op.err = ev, err
	}
	close(op.done)
}

// observe records the tenant's admission→applied latency once the
// event's last switch swaps epochs.
func (t *Tenants) observe(tn *tenant, enq time.Time, ev *Event) {
	if ev == nil {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		select {
		case <-ev.Done():
		case <-t.closed:
			return
		}
		lat := float64(time.Since(enq).Nanoseconds())
		t.mu.Lock()
		tn.latency.add(lat)
		t.mu.Unlock()
	}()
}

// appendLog writes one record to the attached log, remembering the
// first failure for the health surface (state and log diverging is a
// serve-stopping condition, not a silent one).
func (t *Tenants) appendLog(rec *LogRecord) error {
	if t.log == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLogLocked(rec)
}

// appendLogLocked is appendLog for callers already holding t.mu.
// Appending under the lock is the ordering guarantee for registry
// mutations: the dispatcher (which logs event records lock-free, in
// dispatch order) cannot observe the mutation until the lock drops,
// by which point its log record is durable-ordered behind this one.
func (t *Tenants) appendLogLocked(rec *LogRecord) error {
	if t.log == nil {
		return nil
	}
	if err := t.log.Append(rec); err != nil {
		if t.logErr == nil {
			t.logErr = err
		}
		return err
	}
	return nil
}

// Err reports the first event-log append failure, if any.
func (t *Tenants) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.logErr
}

// Replay reconstructs tenants, quotas, live filter registries, and —
// through the underlying service — per-switch refcounts and programs
// from the attached event log. It must run before concurrent use
// (typically right after NewTenants, before serving). Filter IDs are
// reassigned by the reconciler in log order and must match the logged
// IDs exactly; a mismatch means the log does not belong to this
// topology/spec and replay aborts.
func (t *Tenants) Replay() (int, error) {
	if t.log == nil {
		return 0, nil
	}
	parser := subscription.NewParser(t.svc.Spec())
	n, err := t.log.Replay(func(rec *LogRecord) error {
		switch rec.Op {
		case "tenant":
			var q TenantQuota
			if rec.Quota != nil {
				q = *rec.Quota
			}
			t.mu.Lock()
			t.createLocked(rec.Tenant, q)
			t.mu.Unlock()
			return nil
		case "sub":
			t.mu.Lock()
			tn, ok := t.byName[rec.Tenant]
			if !ok && t.autoCreate {
				// Logs written before the tenant-record-first ordering
				// guarantee may carry an event ahead of its tenant
				// record; under auto-create, mint the tenant exactly as
				// the live path would have.
				tn, ok = t.createLocked(rec.Tenant, TenantQuota{}), true
			}
			t.mu.Unlock()
			if !ok {
				return fmt.Errorf("ctlplane: replay seq %d: subscribe for unknown tenant %q", rec.Seq, rec.Tenant)
			}
			exprs := make([]subscription.Expr, len(rec.Filters))
			for i, src := range rec.Filters {
				e, perr := parser.ParseFilter(src)
				if perr != nil {
					return fmt.Errorf("ctlplane: replay seq %d: parse %q: %w", rec.Seq, src, perr)
				}
				exprs[i] = e
			}
			_, ids, serr := t.svc.Subscribe(rec.Host, exprs)
			if serr != nil {
				return fmt.Errorf("ctlplane: replay seq %d: %w", rec.Seq, serr)
			}
			if len(ids) != len(rec.IDs) {
				return fmt.Errorf("ctlplane: replay seq %d: %d ids reassigned, log has %d", rec.Seq, len(ids), len(rec.IDs))
			}
			for i := range ids {
				if ids[i] != rec.IDs[i] {
					return fmt.Errorf("ctlplane: replay seq %d: filter ID drift (%d != logged %d) — log is not from this deployment", rec.Seq, ids[i], rec.IDs[i])
				}
			}
			t.mu.Lock()
			for _, id := range ids {
				tn.live[id] = rec.Host
			}
			t.mu.Unlock()
			return nil
		case "unsub":
			t.mu.Lock()
			tn, ok := t.byName[rec.Tenant]
			if !ok && t.autoCreate {
				tn, ok = t.createLocked(rec.Tenant, TenantQuota{}), true
			}
			t.mu.Unlock()
			if !ok {
				return fmt.Errorf("ctlplane: replay seq %d: unsubscribe for unknown tenant %q", rec.Seq, rec.Tenant)
			}
			if _, serr := t.svc.Unsubscribe(rec.Host, rec.IDs); serr != nil {
				return fmt.Errorf("ctlplane: replay seq %d: %w", rec.Seq, serr)
			}
			t.mu.Lock()
			for _, id := range rec.IDs {
				delete(tn.live, id)
			}
			t.mu.Unlock()
			return nil
		default:
			return fmt.Errorf("ctlplane: replay seq %d: unknown op %q", rec.Seq, rec.Op)
		}
	})
	t.svc.Quiesce()
	return n, err
}

// Snapshot returns one tenant's counters.
func (t *Tenants) Snapshot(name string) (TenantSnapshot, error) {
	covered := t.svc.CoveredFilters() // before t.mu: Service.mu is never taken under t.mu
	t.mu.Lock()
	defer t.mu.Unlock()
	tn, ok := t.byName[name]
	if !ok {
		return TenantSnapshot{}, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t.snapshotLocked(tn, covered), nil
}

// Snapshots returns every tenant's counters, sorted by name.
func (t *Tenants) Snapshots() []TenantSnapshot {
	covered := t.svc.CoveredFilters() // before t.mu: Service.mu is never taken under t.mu
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(t.byName))
	for _, name := range t.order {
		out = append(out, t.snapshotLocked(t.byName[name], covered))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (t *Tenants) snapshotLocked(tn *tenant, covered map[int]bool) TenantSnapshot {
	snap := TenantSnapshot{
		Name:          tn.name,
		Quota:         tn.quota,
		Live:          len(tn.live),
		Pending:       len(tn.pending),
		Subscribes:    tn.subscribes,
		Unsubscribes:  tn.unsubscribes,
		RejectedQuota: tn.rejectedQuota,
		RejectedRate:  tn.rejectedRate,
	}
	for id := range tn.live {
		if covered[id] {
			snap.Covered++
		}
	}
	snap.Latency = tn.latency.summary()
	return snap
}

// LiveFilters returns a tenant's live filter IDs grouped by host.
func (t *Tenants) LiveFilters(name string) (map[int][]int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tn, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	out := make(map[int][]int)
	for id, host := range tn.live {
		out[host] = append(out[host], id)
	}
	for _, ids := range out {
		sort.Ints(ids)
	}
	return out, nil
}

// TenantCount returns the number of registered tenants.
func (t *Tenants) TenantCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byName)
}

// Close stops the dispatcher and releases queued callers with
// ErrClosed. The underlying Service and Log are not closed.
func (t *Tenants) Close() {
	select {
	case <-t.closed:
	default:
		close(t.closed)
	}
	t.wg.Wait()
}

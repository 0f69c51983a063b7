// Package server assembles the multi-tenant control-plane daemon:
// ctlplane.Service + ctlplane.Tenants + the durable event log behind an
// HTTP+JSON API with a Prometheus-text metrics surface.
//
//	PUT    /v1/tenants/{tenant}                create/re-quota a tenant
//	POST   /v1/tenants/{tenant}/subscriptions  subscribe filters
//	DELETE /v1/tenants/{tenant}/subscriptions  unsubscribe filter IDs
//	GET    /v1/tenants/{tenant}/snapshot       per-tenant counters + live filters
//	GET    /v1/stats                           service-wide counters
//	GET    /metrics                            Prometheus text exposition
//	GET    /healthz                            liveness (503 on log/validation trouble)
//
// Error responses reuse the unified report.Finding envelope (camus-lint
// / camusc vet / camusc prove share it), so API consumers parse one
// diagnostic schema across every Camus tool.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
	"unicode/utf8"

	"camus/internal/analysis/report"
	"camus/internal/ctlplane"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// Daemon owns the control-plane stack for one deployment: the apply
// service, the tenancy layer, the optional durable log, and the HTTP
// surface. Construct with New, start with Start, stop with Close.
type Daemon struct {
	net     *topology.Network
	sp      *spec.Spec
	svc     *ctlplane.Service
	tenants *ctlplane.Tenants
	log     *ctlplane.Log

	mux      *http.ServeMux
	srv      *http.Server
	ln       net.Listener
	start    time.Time
	replayed int

	mu sync.Mutex // guards srv/ln lifecycle
}

// Option configures the daemon at construction time.
type Option func(*config)

type config struct {
	logPath    string
	svcOpts    []ctlplane.Option
	tenantOpts []ctlplane.TenantOption
}

// WithEventLog opens (or resumes) the durable event log at path; New
// replays it before the daemon serves traffic.
func WithEventLog(path string) Option {
	return func(c *config) { c.logPath = path }
}

// WithService forwards functional options to the underlying
// ctlplane.New call (installers, validator, queue depth, ...).
func WithService(opts ...ctlplane.Option) Option {
	return func(c *config) { c.svcOpts = append(c.svcOpts, opts...) }
}

// WithTenancy forwards options to ctlplane.NewTenants (default quota,
// auto-create, ...).
func WithTenancy(opts ...ctlplane.TenantOption) Option {
	return func(c *config) { c.tenantOpts = append(c.tenantOpts, opts...) }
}

// New builds the daemon: service, tenancy layer, and — when an event
// log is configured — a replay of every durable record so the
// reconstructed per-switch programs and refcounts match the pre-crash
// state before the first request is accepted.
func New(netw *topology.Network, sp *spec.Spec, opts ...Option) (*Daemon, error) {
	var cfg config
	for _, fn := range opts {
		fn(&cfg)
	}
	d := &Daemon{net: netw, sp: sp, start: time.Now()}
	if cfg.logPath != "" {
		l, err := ctlplane.OpenLog(cfg.logPath)
		if err != nil {
			return nil, err
		}
		d.log = l
		cfg.tenantOpts = append(cfg.tenantOpts, ctlplane.WithEventLog(l))
	}
	svc, err := ctlplane.New(netw, sp, cfg.svcOpts...)
	if err != nil {
		if d.log != nil {
			d.log.Close()
		}
		return nil, err
	}
	d.svc = svc
	d.tenants = ctlplane.NewTenants(svc, cfg.tenantOpts...)
	if d.log != nil {
		n, err := d.tenants.Replay()
		if err != nil {
			d.tenants.Close()
			d.svc.Close()
			d.log.Close()
			return nil, fmt.Errorf("server: replay: %w", err)
		}
		d.replayed = n
	}
	d.mux = http.NewServeMux()
	d.routes()
	return d, nil
}

func (d *Daemon) routes() {
	d.mux.HandleFunc("PUT /v1/tenants/{tenant}", d.handleCreateTenant)
	d.mux.HandleFunc("POST /v1/tenants/{tenant}/subscriptions", d.handleSubscribe)
	d.mux.HandleFunc("DELETE /v1/tenants/{tenant}/subscriptions", d.handleUnsubscribe)
	d.mux.HandleFunc("GET /v1/tenants/{tenant}/snapshot", d.handleSnapshot)
	d.mux.HandleFunc("GET /v1/stats", d.handleStats)
	d.mux.HandleFunc("GET /metrics", d.handleMetrics)
	d.mux.HandleFunc("GET /healthz", d.handleHealthz)
}

// Handler exposes the daemon's HTTP surface for in-process serving
// (httptest, camus-sim -serve).
func (d *Daemon) Handler() http.Handler { return d.mux }

// Service, Tenants and Log expose the assembled layers for harnesses
// that certify daemon state (crash-recovery tests, benchmarks).
func (d *Daemon) Service() *ctlplane.Service { return d.svc }
func (d *Daemon) Tenants() *ctlplane.Tenants { return d.tenants }
func (d *Daemon) Log() *ctlplane.Log         { return d.log }

// Replayed reports how many log records start-up replay applied.
func (d *Daemon) Replayed() int { return d.replayed }

// Start binds addr (":0" for an ephemeral port) and serves in the
// background, returning the bound address.
func (d *Daemon) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.ln = ln
	d.srv = &http.Server{Handler: d.mux, ReadHeaderTimeout: 5 * time.Second}
	srv := d.srv
	d.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close drains the HTTP server, releases the tenancy layer's queued
// callers, shuts the apply workers down and syncs+closes the event log,
// returning the first error.
func (d *Daemon) Close() error {
	var first error
	d.mu.Lock()
	srv := d.srv
	d.srv, d.ln = nil, nil
	d.mu.Unlock()
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			first = err
			srv.Close()
		}
		cancel()
	}
	d.tenants.Close()
	d.svc.Close()
	if d.log != nil {
		if err := d.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------------
// Wire DTOs

type subscribeRequest struct {
	Host    int      `json:"host"`
	Filters []string `json:"filters"`
}

type subscribeResponse struct {
	Tenant string `json:"tenant"`
	Host   int    `json:"host"`
	IDs    []int  `json:"ids"`
	// Applied reports that every affected switch runs the new epoch
	// (the handler waits for the apply fan-out to finish).
	Applied bool `json:"applied"`
	// LogSeq is the durable sequence number covering this event (0
	// without an event log).
	LogSeq int64 `json:"log_seq,omitempty"`
}

type unsubscribeRequest struct {
	Host int   `json:"host"`
	IDs  []int `json:"ids"`
}

type latencyJSON struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

func latencyDTO(l ctlplane.LatencyStats) latencyJSON {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return latencyJSON{N: l.N, P50Ms: ms(l.P50), P90Ms: ms(l.P90), P99Ms: ms(l.P99), MaxMs: ms(l.Max)}
}

type tenantSnapshotJSON struct {
	ctlplane.TenantSnapshot
	Latency latencyJSON   `json:"latency"`
	Filters map[int][]int `json:"filters,omitempty"`
}

type statsResponse struct {
	Service   ctlplane.Snapshot `json:"service"`
	Latency   latencyJSON       `json:"latency"`
	Tenants   int               `json:"tenants"`
	Replayed  int               `json:"replayed"`
	LogSeq    int64             `json:"log_seq,omitempty"`
	LogBytes  int64             `json:"log_bytes,omitempty"`
	UptimeSec float64           `json:"uptime_sec"`
}

// ---------------------------------------------------------------------
// Handlers

// validTenantName gates the names that can enter the registry: path
// decoding lets %00-style escapes smuggle arbitrary bytes into the
// {tenant} segment, and names must round-trip cleanly through log
// records and metrics labels. Control characters, invalid UTF-8, and
// over-long names are refused at the door.
func validTenantName(name string) bool {
	if name == "" || len(name) > 128 || !utf8.ValidString(name) {
		return false
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}

// tenantName extracts and validates the {tenant} path segment for the
// handlers that can create or mutate tenant state, writing the 400
// itself when the name is unusable.
func (d *Daemon) tenantName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		d.fail(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("invalid tenant name %q", name), "")
		return "", false
	}
	return name, true
}

func (d *Daemon) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	name, ok := d.tenantName(w, r)
	if !ok {
		return
	}
	var quota ctlplane.TenantQuota
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&quota); err != nil {
			d.fail(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("decode quota: %v", err), "")
			return
		}
	}
	if err := d.tenants.CreateTenant(name, quota); err != nil {
		d.failErr(w, err, "")
		return
	}
	snap, err := d.tenants.Snapshot(name)
	if err != nil {
		d.failErr(w, err, "")
		return
	}
	writeJSON(w, http.StatusCreated, tenantSnapshotJSON{TenantSnapshot: snap, Latency: latencyDTO(snap.Latency)})
}

func (d *Daemon) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name, ok := d.tenantName(w, r)
	if !ok {
		return
	}
	var req subscribeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		d.fail(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("decode request: %v", err), "")
		return
	}
	if len(req.Filters) == 0 {
		d.fail(w, http.StatusBadRequest, "bad-request", "no filters in request", "")
		return
	}
	// Malformed filters are rejected at the door with the offending
	// source in the envelope's RuleText, before any quota is charged.
	parser := subscription.NewParser(d.sp)
	exprs := make([]subscription.Expr, len(req.Filters))
	for i, src := range req.Filters {
		e, err := parser.ParseFilter(src)
		if err != nil {
			d.fail(w, http.StatusBadRequest, "parse-error", err.Error(), src)
			return
		}
		exprs[i] = e
	}
	ev, ids, err := d.tenants.Subscribe(name, req.Host, exprs)
	if err != nil {
		d.failErr(w, err, "")
		return
	}
	applied := d.waitApplied(r.Context(), ev)
	resp := subscribeResponse{Tenant: name, Host: req.Host, IDs: ids, Applied: applied}
	if d.log != nil {
		resp.LogSeq = d.log.Seq()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	name, ok := d.tenantName(w, r)
	if !ok {
		return
	}
	var req unsubscribeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		d.fail(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("decode request: %v", err), "")
		return
	}
	if len(req.IDs) == 0 {
		d.fail(w, http.StatusBadRequest, "bad-request", "no filter ids in request", "")
		return
	}
	ev, err := d.tenants.Unsubscribe(name, req.Host, req.IDs)
	if err != nil {
		d.failErr(w, err, "")
		return
	}
	applied := d.waitApplied(r.Context(), ev)
	resp := subscribeResponse{Tenant: name, Host: req.Host, IDs: req.IDs, Applied: applied}
	if d.log != nil {
		resp.LogSeq = d.log.Seq()
	}
	writeJSON(w, http.StatusOK, resp)
}

// waitApplied blocks until the event's last switch swaps epochs (or the
// client goes away); it reports false only on early disconnect.
func (d *Daemon) waitApplied(ctx context.Context, ev *ctlplane.Event) bool {
	if ev == nil {
		return false
	}
	select {
	case <-ev.Done():
		return ev.Err() == nil
	case <-ctx.Done():
		return false
	}
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	snap, err := d.tenants.Snapshot(name)
	if err != nil {
		d.failErr(w, err, "")
		return
	}
	filters, err := d.tenants.LiveFilters(name)
	if err != nil {
		d.failErr(w, err, "")
		return
	}
	writeJSON(w, http.StatusOK, tenantSnapshotJSON{
		TenantSnapshot: snap,
		Latency:        latencyDTO(snap.Latency),
		Filters:        filters,
	})
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := d.svc.Stats()
	resp := statsResponse{
		Service:   snap,
		Latency:   latencyDTO(snap.Latency),
		Tenants:   d.tenants.TenantCount(),
		Replayed:  d.replayed,
		UptimeSec: time.Since(d.start).Seconds(),
	}
	if d.log != nil {
		resp.LogSeq = d.log.Seq()
		resp.LogBytes = d.log.Size()
	}
	writeJSON(w, http.StatusOK, resp)
}

// health returns nil when the daemon can keep its durability and
// correctness promises.
func (d *Daemon) health() error {
	if d.log != nil {
		if err := d.log.Err(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
	}
	if err := d.tenants.Err(); err != nil {
		return fmt.Errorf("event log append: %w", err)
	}
	snap := d.svc.Stats()
	if n := snap.ValidationFailures; n > 0 {
		return fmt.Errorf("%d validation failures", n)
	}
	if n := snap.NetValidationFailures; n > 0 {
		return fmt.Errorf("%d network validation failures", n)
	}
	return nil
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := d.health(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unhealthy: %v\n", err)
		return
	}
	io.WriteString(w, "ok\n")
}

// ---------------------------------------------------------------------
// Error envelope

// failErr maps tenancy-layer errors to HTTP statuses: unknown tenant or
// filter → 404, quota/rate admission refusals → 429, fit-admission
// refusals → 507 Insufficient Storage, shutdown → 503.
func (d *Daemon) failErr(w http.ResponseWriter, err error, ruleText string) {
	switch {
	case errors.Is(err, ctlplane.ErrUnknownTenant):
		d.fail(w, http.StatusNotFound, "unknown-tenant", err.Error(), ruleText)
	case errors.Is(err, ctlplane.ErrUnknownFilter):
		d.fail(w, http.StatusNotFound, "unknown-filter", err.Error(), ruleText)
	case errors.Is(err, ctlplane.ErrQuotaExceeded):
		d.fail(w, http.StatusTooManyRequests, "quota-exceeded", err.Error(), ruleText)
	case errors.Is(err, ctlplane.ErrRateLimited):
		d.fail(w, http.StatusTooManyRequests, "rate-limited", err.Error(), ruleText)
	case errors.Is(err, ctlplane.ErrAdmissionRejected):
		d.fail(w, http.StatusInsufficientStorage, "fit-overflow", err.Error(), ruleText)
	case errors.Is(err, ctlplane.ErrClosed):
		d.fail(w, http.StatusServiceUnavailable, "shutting-down", err.Error(), ruleText)
	default:
		d.fail(w, http.StatusInternalServerError, "internal", err.Error(), ruleText)
	}
}

// fail writes the unified diagnostic envelope: one report.Report with a
// single camusd Finding.
func (d *Daemon) fail(w http.ResponseWriter, status int, kind report.Kind, msg, ruleText string) {
	rep := report.Report{
		Tool: "camusd",
		File: "api",
		Findings: []report.Finding{{
			Tool:     "camusd",
			File:     "api",
			RuleID:   -1,
			Kind:     kind,
			Severity: report.SevError,
			Message:  msg,
			RuleText: ruleText,
		}},
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	io.WriteString(w, rep.JSON())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

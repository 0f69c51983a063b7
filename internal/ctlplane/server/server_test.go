package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camus/internal/analysis/fitcheck"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/ctlplane/server"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/routing"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
	"camus/internal/workload/drive"
)

// envelope mirrors the unified report.Report JSON the daemon returns on
// every error path.
type envelope struct {
	Tool     string `json:"tool"`
	Findings []struct {
		Tool     string `json:"tool"`
		RuleID   int    `json:"rule"`
		Kind     string `json:"kind"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
		RuleText string `json:"rule_text"`
	} `json:"findings"`
}

// newDaemon assembles a daemon over a fat-tree(4) netsim (so applies
// reach real pipeline switches) and fronts it with an httptest server.
func newDaemon(t *testing.T, opts ...server.Option) (*server.Daemon, *httptest.Server) {
	t.Helper()
	net := topology.MustFatTree(4)
	ropts := routing.Options{Policy: routing.TrafficReduction, Alpha: 10}
	dep, err := controller.Deploy(net, formats.ITCH,
		make([][]subscription.Expr, len(net.Hosts)), controller.Options{Routing: ropts})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(dep)
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, server.WithService(
		ctlplane.WithRouting(ropts),
		ctlplane.WithInstallers(sim.Installers()...),
		ctlplane.WithSeed(7)))
	d, err := server.New(net, formats.ITCH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() { ts.Close(); d.Close() })
	return d, ts
}

// do issues one JSON request and returns status + raw body.
func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// wantFinding asserts the response is the unified camusd error envelope
// with the expected kind.
func wantFinding(t *testing.T, raw []byte, kind string) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body is not a report envelope: %v\n%s", err, raw)
	}
	if env.Tool != "camusd" || len(env.Findings) != 1 {
		t.Fatalf("envelope = tool %q with %d findings, want camusd with 1\n%s",
			env.Tool, len(env.Findings), raw)
	}
	f := env.Findings[0]
	if f.Kind != kind || f.Severity != "error" || f.RuleID != -1 {
		t.Errorf("finding = kind %q severity %q rule %d, want %q/error/-1",
			f.Kind, f.Severity, f.RuleID, kind)
	}
	return env
}

// TestHTTPGoldens walks the whole API surface: happy paths return the
// documented DTOs, error paths return the unified report.Finding
// envelope with the documented status codes.
func TestHTTPGoldens(t *testing.T) {
	_, ts := newDaemon(t)
	base := ts.URL

	// Tenant creation echoes the applied quota.
	status, raw := do(t, http.MethodPut, base+"/v1/tenants/acme",
		ctlplane.TenantQuota{MaxSubscriptions: 2})
	if status != http.StatusCreated {
		t.Fatalf("create tenant: status %d\n%s", status, raw)
	}
	var created struct {
		Name  string               `json:"name"`
		Quota ctlplane.TenantQuota `json:"quota"`
	}
	json.Unmarshal(raw, &created)
	if created.Name != "acme" || created.Quota.MaxSubscriptions != 2 {
		t.Errorf("created = %+v", created)
	}

	// Subscribe: IDs assigned, apply awaited, per-tenant snapshot sees it.
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/acme/subscriptions",
		map[string]any{"host": 3, "filters": []string{"stock == GOOGL and price > 100", "stock == MSFT"}})
	if status != http.StatusOK {
		t.Fatalf("subscribe: status %d\n%s", status, raw)
	}
	var sub struct {
		Tenant  string `json:"tenant"`
		Host    int    `json:"host"`
		IDs     []int  `json:"ids"`
		Applied bool   `json:"applied"`
	}
	json.Unmarshal(raw, &sub)
	if sub.Tenant != "acme" || sub.Host != 3 || len(sub.IDs) != 2 || !sub.Applied {
		t.Errorf("subscribe response = %+v", sub)
	}

	status, raw = do(t, http.MethodGet, base+"/v1/tenants/acme/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot: status %d", status)
	}
	var snap struct {
		Live    int           `json:"live"`
		Filters map[int][]int `json:"filters"`
	}
	json.Unmarshal(raw, &snap)
	if snap.Live != 2 || len(snap.Filters[3]) != 2 {
		t.Errorf("snapshot = %+v\n%s", snap, raw)
	}

	// Quota wall → 429 quota-exceeded.
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/acme/subscriptions",
		map[string]any{"host": 0, "filters": []string{"stock == AAPL"}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota subscribe: status %d\n%s", status, raw)
	}
	wantFinding(t, raw, "quota-exceeded")

	// Unknown tenant → 404 unknown-tenant.
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/ghost/subscriptions",
		map[string]any{"host": 0, "filters": []string{"stock == AAPL"}})
	if status != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d", status)
	}
	wantFinding(t, raw, "unknown-tenant")

	// Malformed filter → 400 parse-error carrying the offending source.
	bad := "stock === GOOGL"
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/acme/subscriptions",
		map[string]any{"host": 0, "filters": []string{bad}})
	if status != http.StatusBadRequest {
		t.Fatalf("malformed filter: status %d\n%s", status, raw)
	}
	env := wantFinding(t, raw, "parse-error")
	if env.Findings[0].RuleText != bad {
		t.Errorf("parse-error rule_text = %q, want %q", env.Findings[0].RuleText, bad)
	}

	// Malformed JSON body → 400 bad-request.
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/acme/subscriptions", []byte("{not json"))
	if status != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", status)
	}
	wantFinding(t, raw, "bad-request")

	// Unsubscribing someone else's (or no one's) ID → 404 unknown-filter.
	status, raw = do(t, http.MethodDelete, base+"/v1/tenants/acme/subscriptions",
		map[string]any{"host": 3, "ids": []int{9999}})
	if status != http.StatusNotFound {
		t.Fatalf("unknown filter: status %d\n%s", status, raw)
	}
	wantFinding(t, raw, "unknown-filter")

	// Rate limiting → 429 rate-limited once the burst is spent.
	do(t, http.MethodPut, base+"/v1/tenants/spam", ctlplane.TenantQuota{EventsPerSec: 0.001, Burst: 1})
	do(t, http.MethodPost, base+"/v1/tenants/spam/subscriptions",
		map[string]any{"host": 1, "filters": []string{"stock == FB"}})
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/spam/subscriptions",
		map[string]any{"host": 1, "filters": []string{"stock == HP"}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("rate limit: status %d\n%s", status, raw)
	}
	wantFinding(t, raw, "rate-limited")

	// Unsubscribe happy path.
	status, raw = do(t, http.MethodDelete, base+"/v1/tenants/acme/subscriptions",
		map[string]any{"host": 3, "ids": sub.IDs[:1]})
	if status != http.StatusOK {
		t.Fatalf("unsubscribe: status %d\n%s", status, raw)
	}

	// Stats: service counters plus tenancy overlay.
	status, raw = do(t, http.MethodGet, base+"/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	var stats struct {
		Service struct {
			Events  int64
			Applied int64
		} `json:"service"`
		Tenants int `json:"tenants"`
	}
	json.Unmarshal(raw, &stats)
	if stats.Tenants != 2 || stats.Service.Events == 0 || stats.Service.Applied == 0 {
		t.Errorf("stats = %+v\n%s", stats, raw)
	}

	// Metrics: Prometheus text exposition with the documented families.
	status, raw = do(t, http.MethodGet, base+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	body := string(raw)
	for _, want := range []string{
		"camus_events_total ",
		"camus_ctlplane_compactions_total 0",
		"# TYPE camus_ctlplane_switches_touched_total counter",
		"# TYPE camus_ctlplane_switches_changed_total counter",
		"# TYPE camus_ctlplane_engine_nodes gauge",
		"# TYPE camus_ctlplane_engine_memo_entries gauge",
		"# TYPE camus_ctlplane_engine_bytes gauge",
		"camus_tenants 2",
		`camus_tenant_live{tenant="acme"} 1`,
		`camus_tenant_rejected_total{tenant="acme",reason="quota"} 1`,
		`camus_tenant_rejected_total{tenant="spam",reason="rate"} 1`,
		"camus_apply_latency_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Liveness.
	status, raw = do(t, http.MethodGet, base+"/healthz", nil)
	if status != http.StatusOK || strings.TrimSpace(string(raw)) != "ok" {
		t.Errorf("healthz = %d %q", status, raw)
	}
}

// TestTenantNameValidationAndEscaping: the {tenant} path segment is
// client-controlled and ends up in log records and Prometheus labels.
// Control characters and over-long names are refused with 400; odd but
// printable names must render as valid exposition-format labels
// (backslash/quote/newline escaping — not Go %q, whose \t and \xNN
// escapes the format does not define).
func TestTenantNameValidationAndEscaping(t *testing.T) {
	_, ts := newDaemon(t)
	base := ts.URL

	for _, bad := range []string{
		url.PathEscape("tab\there"),
		url.PathEscape(strings.Repeat("x", 200)),
	} {
		status, raw := do(t, http.MethodPut, base+"/v1/tenants/"+bad, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("PUT invalid name %q: status %d\n%s", bad, status, raw)
		}
		wantFinding(t, raw, "bad-request")
		status, raw = do(t, http.MethodPost, base+"/v1/tenants/"+bad+"/subscriptions",
			map[string]any{"host": 0, "filters": []string{"stock == GOOGL"}})
		if status != http.StatusBadRequest {
			t.Fatalf("POST invalid name %q: status %d\n%s", bad, status, raw)
		}
	}

	// Printable-but-odd name: accepted, and escaped per the exposition
	// format on /metrics.
	odd := `we"ird\name`
	if status, raw := do(t, http.MethodPut, base+"/v1/tenants/"+url.PathEscape(odd), nil); status != http.StatusCreated {
		t.Fatalf("PUT odd name: status %d\n%s", status, raw)
	}
	status, raw := do(t, http.MethodGet, base+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	want := `camus_tenant_live{tenant="we\"ird\\name"} 0`
	if !strings.Contains(string(raw), want) {
		t.Errorf("metrics exposition missing %q", want)
	}
}

// TestMetricsCovering: under WithCovering the exposition gains the
// covering families, including the per-tenant covered-subscription
// gauge (registry state, so visible as soon as the subscribe returns).
func TestMetricsCovering(t *testing.T) {
	_, ts := newDaemon(t, server.WithService(ctlplane.WithCovering()),
		server.WithTenancy(ctlplane.WithAutoCreate()))
	base := ts.URL

	// acme's narrow refinement is covered by its broad filter; the other
	// tenant holds an unrelated, uncovered subscription.
	status, raw := do(t, http.MethodPost, base+"/v1/tenants/acme/subscriptions",
		map[string]any{"host": 0, "filters": []string{"stock == GOOGL", "stock == GOOGL and price > 500"}})
	if status != http.StatusOK {
		t.Fatalf("subscribe: status %d\n%s", status, raw)
	}
	status, raw = do(t, http.MethodPost, base+"/v1/tenants/beta/subscriptions",
		map[string]any{"host": 5, "filters": []string{"stock == MSFT"}})
	if status != http.StatusOK {
		t.Fatalf("subscribe: status %d\n%s", status, raw)
	}

	status, raw = do(t, http.MethodGet, base+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	body := string(raw)
	for _, want := range []string{
		"camus_cover_entries ",
		"camus_cover_obligations ",
		"camus_cover_savings_ratio ",
		"camus_cover_captures_total ",
		"camus_cover_promotions_total ",
		`camus_tenant_covered{tenant="acme"} 1`,
		`camus_tenant_covered{tenant="beta"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, body)
		}
	}
	// The lifetime counter must have recorded the elided narrow install.
	if strings.Contains(body, "camus_cover_covered_adds_total 0\n") ||
		!strings.Contains(body, "camus_cover_covered_adds_total ") {
		t.Errorf("camus_cover_covered_adds_total missing or zero after a covered subscribe\n%s", body)
	}
	// Without covering the families must stay absent (series hygiene).
	_, plain := newDaemon(t)
	status, raw = do(t, http.MethodGet, plain.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if strings.Contains(string(raw), "camus_cover_") || strings.Contains(string(raw), "camus_tenant_covered") {
		t.Error("covering series exposed without WithCovering")
	}
}

// TestHTTPAdmissionReject drives the daemon with fit admission on a
// tight pipeline budget until a subscribe is refused: the refusal must
// surface as 507 Insufficient Storage with a "fit-overflow" finding,
// and /metrics must expose the camus_fit_* family (and only then —
// series hygiene without WithAdmission).
func TestHTTPAdmissionReject(t *testing.T) {
	model := fitcheck.NewModelWith(fitcheck.Budget{
		Stages:          8,
		StageSRAMBytes:  512,
		StageTCAMBytes:  1024,
		StageKeyBits:    512,
		MaxTableSplit:   1,
		MulticastGroups: 65536,
		Registers:       4,
	})
	_, ts := newDaemon(t, server.WithService(ctlplane.WithAdmission(model)),
		server.WithTenancy(ctlplane.WithAutoCreate()))
	base := ts.URL

	rejected := false
	var rejectBody []byte
	for i := 0; i < 120 && !rejected; i++ {
		status, raw := do(t, http.MethodPost, base+"/v1/tenants/acme/subscriptions",
			map[string]any{"host": 1, "filters": []string{fmt.Sprintf("stock == GOOGL and price == %d", i)}})
		switch status {
		case http.StatusOK:
		case http.StatusInsufficientStorage:
			rejected, rejectBody = true, raw
		default:
			t.Fatalf("subscribe %d: status %d\n%s", i, status, raw)
		}
	}
	if !rejected {
		t.Fatal("no subscribe was refused under the tight fit budget")
	}
	env := wantFinding(t, rejectBody, "fit-overflow")
	if !strings.Contains(env.Findings[0].Message, "admission rejected") {
		t.Errorf("fit-overflow message = %q, want the ErrAdmissionRejected text", env.Findings[0].Message)
	}

	status, raw := do(t, http.MethodGet, base+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	body := string(raw)
	for _, want := range []string{
		"camus_fit_checks_total ",
		"camus_fit_rejects_total ",
		"camus_fit_headroom_entries ",
		"camus_fit_stage_sram_pct ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, "camus_fit_rejects_total 0\n") {
		t.Errorf("camus_fit_rejects_total still zero after a 507\n%s", body)
	}

	// Without WithAdmission the family must stay absent.
	_, plain := newDaemon(t)
	status, raw = do(t, http.MethodGet, plain.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if strings.Contains(string(raw), "camus_fit_") {
		t.Error("fit-admission series exposed without WithAdmission")
	}
}

// TestHTTPCrashRecovery certifies the daemon's restart path end to end:
// churn over HTTP into a durable log, kill the daemon (torn record at
// the tail), boot a fresh daemon over the same log, and require
// Canonical()-identical per-switch programs plus intact per-tenant
// namespaces before it serves a single request.
func TestHTTPCrashRecovery(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	d1, err := drive.New(drive.Config{
		K: 4, Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
		Churn: workload.ChurnConfig{Events: 60, PoolSize: 16, Tenants: 2, Seed: 9},
		HTTP:  true, LogPath: logPath, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"tenant-0000", "tenant-0001"}
	for _, name := range tenants {
		if status, raw := do(t, http.MethodPut, d1.URL+"/v1/tenants/"+name, nil); status != http.StatusCreated {
			t.Fatalf("create %s: %d\n%s", name, status, raw)
		}
	}
	if _, err := d1.Run(); err != nil {
		t.Fatal(err)
	}

	// Pre-crash ground truth.
	net := topology.MustFatTree(4)
	svc1 := d1.Daemon.Service()
	wantProgs := make([]string, len(net.Switches))
	for sw := range net.Switches {
		wantProgs[sw] = svc1.Program(sw).Canonical().String()
	}
	wantLive := map[string]map[int][]int{}
	for _, name := range tenants {
		lf, err := d1.Daemon.Tenants().LiveFilters(name)
		if err != nil {
			t.Fatal(err)
		}
		wantLive[name] = lf
	}
	wantSeq := d1.Daemon.Log().Seq()

	// Kill: close (records are already fsynced by the group-commit
	// flusher), then tear the tail the way an interrupted append would.
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x04, 0x00, '{', '"', 'o'})
	f.Close()

	// Reboot over the same log.
	d2, ts2 := newDaemon(t, server.WithEventLog(logPath))
	if int64(d2.Replayed()) != wantSeq {
		t.Fatalf("replayed %d records, want %d", d2.Replayed(), wantSeq)
	}
	svc2 := d2.Service()
	for sw := range net.Switches {
		if got := svc2.Program(sw).Canonical().String(); got != wantProgs[sw] {
			t.Errorf("switch %d: rebooted program differs from pre-crash program", sw)
		}
	}
	for _, name := range tenants {
		lf, err := d2.Tenants().LiveFilters(name)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(lf) != fmt.Sprint(wantLive[name]) {
			t.Errorf("tenant %s: rebooted live set %v, want %v", name, lf, wantLive[name])
		}
	}

	// The rebooted daemon keeps serving: replayed filters are still
	// unsubscribable over HTTP, and the log picks up where it left off.
	host, id := -1, 0
	for h, ids := range wantLive[tenants[0]] {
		host, id = h, ids[0]
		break
	}
	if host < 0 {
		t.Fatalf("tenant %s holds no live filter to unsubscribe", tenants[0])
	}
	status, raw := do(t, http.MethodDelete, ts2.URL+"/v1/tenants/"+tenants[0]+"/subscriptions",
		map[string]any{"host": host, "ids": []int{id}})
	if status != http.StatusOK {
		t.Fatalf("post-reboot unsubscribe: %d\n%s", status, raw)
	}
	if got := d2.Log().Seq(); got != wantSeq+1 {
		t.Errorf("post-reboot log seq %d, want %d", got, wantSeq+1)
	}
	if status, raw := do(t, http.MethodGet, ts2.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("post-reboot healthz = %d %q", status, raw)
	}
}

// TestHTTPChurnSoakValidated drives a multi-tenant Zipf churn stream
// through the API with the translation validator sampling batches: a
// small `camus-sim -serve`. A passing verdict (no failed batch, healthy
// daemon) and sampled validations are the pass criteria.
func TestHTTPChurnSoakValidated(t *testing.T) {
	events := 120
	if testing.Short() {
		events = 40
	}
	d, err := drive.New(drive.Config{
		K: 4, Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
		Churn:         workload.ChurnConfig{Events: events, PoolSize: 24, Tenants: 40, Seed: 11},
		ValidateEvery: 8, HTTP: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err := errors.Join(err, d.Close(), res.Verdict()); err != nil {
		t.Fatalf("soak gate failed: %v", err)
	}
	snap := res.Snapshot
	if snap.Validations == 0 {
		t.Error("soak ran without a single sampled validation")
	}
	if snap.Events < int64(res.Latency.N()) {
		t.Errorf("service saw %d events, drove %d", snap.Events, res.Latency.N())
	}
	// Per-tenant latency percentiles reached the snapshots (the soak
	// report's data source).
	var sawLatency bool
	for _, s := range d.Daemon.Tenants().Snapshots() {
		if s.Latency.N > 0 {
			sawLatency = true
			break
		}
	}
	if !sawLatency {
		t.Error("no tenant recorded apply latency")
	}
}

// TestHTTPCrashRecoveryNetchecked is the crash-recovery netcheck gate:
// a daemon with the network-wide delivery verifier always-on certifies
// clean under HTTP churn, is killed, and the replayed log must pass
// netcheck identically — same live (filter, host) cut, zero violations
// on the rebooted programs, healthy /healthz.
func TestHTTPCrashRecoveryNetchecked(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	net := topology.MustFatTree(4)
	netOpt := ctlplane.WithNetValidator(ctlplane.NetcheckValidator(net, formats.ITCH), 1)
	d1, err := drive.New(drive.Config{
		K: 4, Routing: routing.Options{Policy: routing.TrafficReduction, Alpha: 10},
		Churn:   workload.ChurnConfig{Events: 40, PoolSize: 16, Tenants: 1, Seed: 3},
		Service: []ctlplane.Option{netOpt},
		HTTP:    true, LogPath: logPath, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := do(t, http.MethodPut, d1.URL+"/v1/tenants/tenant-0000", nil); status != http.StatusCreated {
		t.Fatalf("create tenant: %d\n%s", status, raw)
	}
	res, err := d1.Run()
	if err := errors.Join(err, d1.Close(), res.Verdict()); err != nil {
		t.Fatalf("pre-crash: %v", err) // a delivery-invariant violation fails the verdict
	}
	if res.Snapshot.NetValidations == 0 {
		t.Fatal("pre-crash: always-on net validator never ran")
	}
	wantCut := fmt.Sprint(d1.Daemon.Service().HostFilters())

	// Reboot over the same log: replay re-drives every event through the
	// service, so the validator re-certifies the recovered network.
	d2, ts2 := newDaemon(t, server.WithEventLog(logPath), server.WithService(netOpt))
	d2.Service().Quiesce()
	snap2 := d2.Service().Stats()
	if snap2.NetValidations == 0 {
		t.Fatal("post-reboot: net validator never ran during replay")
	}
	if snap2.NetValidationFailures != 0 {
		t.Fatalf("post-reboot: %d delivery-invariant violations after replay", snap2.NetValidationFailures)
	}
	if gotCut := fmt.Sprint(d2.Service().HostFilters()); gotCut != wantCut {
		t.Errorf("replayed (filter, host) cut differs:\n got %s\nwant %s", gotCut, wantCut)
	}
	// Belt and braces: certify the rebooted cut explicitly, outside the
	// quiescence sampling.
	progs := make([]*compiler.Program, len(net.Switches))
	for sw := range net.Switches {
		progs[sw] = d2.Service().Program(sw)
	}
	check := ctlplane.NetcheckValidator(net, formats.ITCH)
	if err := check(progs, d2.Service().HostFilters()); err != nil {
		t.Errorf("replayed deployment fails netcheck: %v", err)
	}
	if status, raw := do(t, http.MethodGet, ts2.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("post-reboot healthz = %d %q", status, raw)
	}
}

package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"camus/internal/ctlplane"
)

// labelEscaper escapes a label value per the Prometheus text
// exposition format, which defines exactly three escapes: backslash,
// double-quote, and newline. Go's %q is not usable here — it emits
// \t / \xNN sequences the format does not define, so one odd tenant
// name would make the whole page unparseable.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// maxTenantSeries caps per-tenant label cardinality: auto-create lets
// clients mint tenants freely, and an unbounded label set is how a
// scrape target kills its own Prometheus. Beyond the cap (first N in
// name order — Snapshots is sorted, so membership is stable), the
// omitted remainder is counted in camus_tenant_series_omitted; the
// service-wide aggregates still include every tenant.
const maxTenantSeries = 256

// handleMetrics renders the Prometheus text exposition format by hand —
// the repo takes no external dependencies, and the format is three line
// shapes (# HELP, # TYPE, sample). Catalog:
//
//	camus_*_total                     service counters (Snapshot)
//	camus_queue_depth{,_peak}         in-flight event gauges
//	camus_ctlplane_switches_touched_total  switches events queued rule ops on
//	camus_ctlplane_switches_changed_total  switch compiles with a non-empty entry delta
//	camus_ctlplane_compactions_total  full rebuilds the engine-size bound triggered
//	camus_ctlplane_engine_nodes       BDD nodes the switch engines retain
//	camus_ctlplane_engine_memo_entries  or-merge memo entries they retain
//	camus_ctlplane_engine_bytes       memory the switch engines hold
//	camus_apply_latency_seconds       event→applied summary (quantiles)
//	camus_log_{seq,bytes}             durable log position
//	camus_log_truncated_bytes         torn-tail bytes dropped at open
//	camus_tenants                     registered tenant count
//	camus_tenant_series_omitted       tenants beyond the label-cardinality cap
//	camus_tenant_live{tenant}         per-tenant live subscriptions
//	camus_tenant_pending{tenant}      per-tenant fairness-queue depth
//	camus_cover_entries               installed covering entries (forest roots)
//	camus_cover_obligations           covered filters elided from the tables
//	camus_cover_savings_ratio         elided entry fraction
//	camus_cover_covered_adds_total    installs elided by an existing covering entry
//	camus_cover_captures_total        entries removed by broader-root capture
//	camus_cover_promotions_total      children re-installed by uncoverings
//	camus_tenant_covered{tenant}      per-tenant covered subscriptions
//	  (covering-mode series appear only under WithCovering and respect
//	  the same tenant-series cap)
//	camus_fit_checks_total            fit-admission checks (WithAdmission only)
//	camus_fit_rejects_total           subscribes refused by fit admission
//	camus_fit_headroom_entries        min entry headroom across switches
//	camus_fit_stage_sram_pct          fullest stage SRAM bank, percent
//	camus_tenant_events_total{tenant,op}        dispatched sub/unsub
//	camus_tenant_rejected_total{tenant,reason}  quota/rate refusals
//	camus_tenant_latency_seconds{tenant,quantile}
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	snap := d.svc.Stats()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP camus_%s %s\n# TYPE camus_%s counter\ncamus_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP camus_%s %s\n# TYPE camus_%s gauge\ncamus_%s %g\n", name, help, name, name, v)
	}

	counter("events_total", "Submitted subscription changes.", snap.Events)
	counter("subscribes_total", "Submitted subscribe events.", snap.Subscribes)
	counter("unsubscribes_total", "Submitted unsubscribe events.", snap.Unsubscribes)
	counter("applied_total", "Events fully rolled out on every affected switch.", snap.Applied)
	counter("batches_total", "Per-switch compile+install rounds.", snap.Batches)
	counter("installs_total", "Table entries installed.", snap.Installs)
	counter("deletes_total", "Table entries deleted.", snap.Deletes)
	counter("keeps_total", "Table entries reused across epochs.", snap.Keeps)
	counter("ctlplane_switches_touched_total", "Switches that received rule ops, summed over events.", snap.SwitchesTouched)
	counter("ctlplane_switches_changed_total", "Per-switch compiles whose program came out with installs+deletes > 0.", snap.SwitchesChanged)
	counter("retries_total", "Backed-off apply attempts.", snap.Retries)
	counter("fallbacks_total", "Full rebuilds of a switch from its rule registry (apply-error recovery + compaction).", snap.Fallbacks)
	counter("ctlplane_compactions_total", "Full rebuilds triggered by the engine-size compaction bound.", snap.Compactions)
	gauge("ctlplane_engine_nodes", "BDD nodes retained by the per-switch incremental engines, summed over switches.", float64(snap.EngineNodes))
	gauge("ctlplane_engine_memo_entries", "Or-merge memo entries retained by the per-switch incremental engines, summed over switches.", float64(snap.EngineMemoEntries))
	gauge("ctlplane_engine_bytes", "Bytes of node store, tables and materialised nodes held by the per-switch incremental engines, summed over switches.", float64(snap.EngineBytes))
	counter("failures_total", "Batches that exhausted retries or failed compile/validation.", snap.Failures)
	counter("validations_total", "Translation-validation runs.", snap.Validations)
	counter("validation_failures_total", "Batches rejected as disequivalent.", snap.ValidationFailures)
	counter("net_validations_total", "Network-wide delivery-validation runs at quiescent points.", snap.NetValidations)
	counter("net_validation_failures_total", "Network validations that found a delivery-invariant violation.", snap.NetValidationFailures)
	gauge("queue_depth", "In-flight subscription events.", float64(snap.QueueDepth))
	gauge("queue_depth_peak", "High-water mark of in-flight events.", float64(snap.PeakQueueDepth))
	if snap.Covering {
		gauge("cover_entries", "Installed covering entries (subsumption-forest roots).", float64(snap.CoverEntries))
		gauge("cover_obligations", "Covered filters elided from the tables (refcounted obligations).", float64(snap.CoverObligations))
		gauge("cover_savings_ratio", "Fraction of table entries elided by covering.", snap.CoverSavingsRatio)
		counter("cover_covered_adds_total", "Installs elided because an existing covering entry subsumed the new filter.", snap.CoveredAdds)
		counter("cover_captures_total", "Entries removed because a broader new root captured them.", snap.CoverCaptures)
		counter("cover_promotions_total", "Covered children re-installed by uncoverings.", snap.CoverPromotions)
	}
	if snap.Admission {
		counter("fit_checks_total", "Static fit-admission checks run before registry mutation.", snap.AdmissionChecks)
		counter("fit_rejects_total", "Subscribes refused because the predicted entry delta would overflow a pipeline.", snap.AdmissionRejects)
		gauge("fit_headroom_entries", "Minimum remaining table-entry headroom across switches with an installed program.", float64(snap.FitHeadroomEntries))
		gauge("fit_stage_sram_pct", "Fullest stage SRAM bank anywhere in the deployment, percent.", snap.FitStageSRAMPct)
	}

	writeSummary(&b, "apply_latency_seconds", "Event submission to all-switches-applied latency.", "", snap.Latency)

	if d.log != nil {
		gauge("log_seq", "Last durable event-log sequence number.", float64(d.log.Seq()))
		gauge("log_bytes", "Event log size in bytes.", float64(d.log.Size()))
		gauge("log_truncated_bytes", "Torn-tail bytes discarded when the log was opened.", float64(d.log.Truncated()))
	}

	tenants := d.tenants.Snapshots()
	gauge("tenants", "Registered tenants.", float64(len(tenants)))
	if len(tenants) > maxTenantSeries {
		gauge("tenant_series_omitted", "Tenants beyond the per-tenant series cap (service aggregates still count them).", float64(len(tenants)-maxTenantSeries))
		tenants = tenants[:maxTenantSeries]
	}

	fmt.Fprintf(&b, "# HELP camus_tenant_live Live subscriptions per tenant.\n# TYPE camus_tenant_live gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "camus_tenant_live{tenant=\"%s\"} %d\n", labelEscaper.Replace(t.Name), t.Live)
	}
	fmt.Fprintf(&b, "# HELP camus_tenant_pending Fairness-queue depth per tenant.\n# TYPE camus_tenant_pending gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "camus_tenant_pending{tenant=\"%s\"} %d\n", labelEscaper.Replace(t.Name), t.Pending)
	}
	if snap.Covering {
		fmt.Fprintf(&b, "# HELP camus_tenant_covered Live subscriptions whose access-port entry is elided by covering, per tenant.\n# TYPE camus_tenant_covered gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(&b, "camus_tenant_covered{tenant=\"%s\"} %d\n", labelEscaper.Replace(t.Name), t.Covered)
		}
	}
	fmt.Fprintf(&b, "# HELP camus_tenant_events_total Dispatched events per tenant.\n# TYPE camus_tenant_events_total counter\n")
	for _, t := range tenants {
		name := labelEscaper.Replace(t.Name)
		fmt.Fprintf(&b, "camus_tenant_events_total{tenant=\"%s\",op=\"sub\"} %d\n", name, t.Subscribes)
		fmt.Fprintf(&b, "camus_tenant_events_total{tenant=\"%s\",op=\"unsub\"} %d\n", name, t.Unsubscribes)
	}
	fmt.Fprintf(&b, "# HELP camus_tenant_rejected_total Admission refusals per tenant.\n# TYPE camus_tenant_rejected_total counter\n")
	for _, t := range tenants {
		name := labelEscaper.Replace(t.Name)
		fmt.Fprintf(&b, "camus_tenant_rejected_total{tenant=\"%s\",reason=\"quota\"} %d\n", name, t.RejectedQuota)
		fmt.Fprintf(&b, "camus_tenant_rejected_total{tenant=\"%s\",reason=\"rate\"} %d\n", name, t.RejectedRate)
	}
	fmt.Fprintf(&b, "# HELP camus_tenant_latency_seconds Admission to all-switches-applied latency per tenant.\n# TYPE camus_tenant_latency_seconds summary\n")
	for _, t := range tenants {
		if t.Latency.N == 0 {
			continue
		}
		writeSummary(&b, "tenant_latency_seconds", "", fmt.Sprintf("tenant=\"%s\",", labelEscaper.Replace(t.Name)), t.Latency)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// writeSummary emits quantile samples plus _count for one latency
// distribution. help == "" suppresses the HELP/TYPE header (repeated
// per-label-set summaries share one header). labels, if non-empty, is
// a trailing-comma label prefix whose values are already escaped.
func writeSummary(b *strings.Builder, name, help, labels string, l ctlplane.LatencyStats) {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	if help != "" {
		fmt.Fprintf(b, "# HELP camus_%s %s\n# TYPE camus_%s summary\n", name, help, name)
	}
	fmt.Fprintf(b, "camus_%s{%squantile=\"0.5\"} %g\n", name, labels, sec(l.P50))
	fmt.Fprintf(b, "camus_%s{%squantile=\"0.9\"} %g\n", name, labels, sec(l.P90))
	fmt.Fprintf(b, "camus_%s{%squantile=\"0.99\"} %g\n", name, labels, sec(l.P99))
	if lbl := strings.TrimSuffix(labels, ","); lbl != "" {
		fmt.Fprintf(b, "camus_%s_count{%s} %d\n", name, lbl, l.N)
	} else {
		fmt.Fprintf(b, "camus_%s_count %d\n", name, l.N)
	}
}

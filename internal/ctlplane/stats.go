package ctlplane

import (
	"fmt"
	"slices"
	"time"

	"camus/internal/compiler"
	"camus/internal/stats"
)

// LatencyStats summarizes end-to-end update latency: event submission →
// the moment every affected switch runs the new epoch. N and Max cover
// every event since start; the percentiles the latest latencyWindow.
type LatencyStats struct {
	N                  int
	P50, P90, P99, Max time.Duration
}

// latencyWindow bounds a latency record: a service runs for months and
// every summary copies and sorts the record, so it keeps the latest
// samples only.
const latencyWindow = 4096

// latencyRecord is a latency record in ns: a ring of the latest
// latencyWindow samples, the count of all samples ever and their
// maximum. Its owner's lock guards it.
type latencyRecord struct {
	ring []float64
	n    int
	max  float64
}

func (r *latencyRecord) add(ns float64) {
	if len(r.ring) < latencyWindow {
		r.ring = append(r.ring, ns)
	} else {
		r.ring[r.n%latencyWindow] = ns
	}
	r.n++
	r.max = max(r.max, ns)
}

// summary sorts a copy of the window; the zero LatencyStats when empty.
func (r *latencyRecord) summary() LatencyStats {
	if r.n == 0 {
		return LatencyStats{}
	}
	var sample stats.Sample
	for _, v := range r.ring {
		sample.Add(v)
	}
	return LatencyStats{
		N:   r.n,
		P50: time.Duration(sample.Percentile(50)),
		P90: time.Duration(sample.Percentile(90)),
		P99: time.Duration(sample.Percentile(99)),
		Max: time.Duration(r.max),
	}
}

// Snapshot is an immutable view of the control plane's counters, in the
// style of pipeline.StatsSnapshot. Obtain one via Service.Stats(); the
// Service keeps its counters in one, under its lock.
type Snapshot struct {
	// Events counts submitted subscription changes (Subscribes +
	// Unsubscribes + the initial policy flush); Applied counts those
	// fully rolled out.
	Events       int64
	Subscribes   int64
	Unsubscribes int64
	Applied      int64
	// Batches counts per-switch compile+install rounds; with coalescing
	// many events share one batch.
	Batches int64
	// Installs / Deletes / Keeps are the accumulated table-entry deltas
	// across all switches (§V "table entry re-use").
	Installs int64
	Deletes  int64
	Keeps    int64
	// SwitchesTouched and SwitchesChanged measure update locality:
	// SwitchesTouched sums, over events, the switches an event's rule ops
	// were queued on; SwitchesChanged counts the per-switch compiles
	// (Batches) whose program came out with Installs+Deletes > 0. A
	// placement that touches a switch without changing its table shows
	// up as the gap between the two, coalescing aside.
	SwitchesTouched int64
	SwitchesChanged int64
	// Retries counts backed-off apply attempts; Fallbacks counts full
	// rebuilds of a switch from its rule registry — apply-error recovery
	// plus compaction, Compactions the latter alone; Failures counts
	// batches that exhausted retries, failed to compile, or failed
	// validation.
	Retries     int64
	Fallbacks   int64
	Compactions int64
	Failures    int64
	// EngineNodes / EngineMemoEntries are what the per-switch incremental
	// engines retain, summed over switches: BDD nodes ever hash-consed
	// and the merge tree's memoized pairs (the merge's subproblems live
	// in a bounded lossy table and are not counted). Compaction
	// (Reconciler.Compile) bounds each engine by a multiple of what it
	// held when last rebuilt. EngineBytes is the memory those engines
	// hold (bdd.Engine.CacheBytes), the lossy tables included.
	EngineNodes       int64
	EngineMemoEntries int64
	EngineBytes       int64
	// Validations counts post-compile translation-validation runs
	// (WithValidator); ValidationFailures counts batches rejected as
	// disequivalent — those never reach the installer.
	Validations        int64
	ValidationFailures int64
	// NetValidations counts network-wide delivery-validation runs at
	// quiescent points (WithNetValidator); NetValidationFailures
	// counts runs that found an invariant violation.
	NetValidations        int64
	NetValidationFailures int64
	// QueueDepth is the current number of in-flight events;
	// PeakQueueDepth the high-water mark (bounded by MaxPending).
	QueueDepth     int
	PeakQueueDepth int
	// Covering telemetry (WithCovering; all zero when covering is
	// off): CoverEntries is the number of installed forest roots —
	// the actual table rules — and CoverObligations the number of
	// covered filters elided from the tables. Full installation would
	// use CoverEntries+CoverObligations rules; CoverSavingsRatio is
	// the elided fraction CoverObligations / (CoverEntries +
	// CoverObligations).
	// CoveredAdds/CoverCaptures/CoverPromotions are lifetime totals
	// (cover.Counters): installs elided because an existing root
	// covered the new filter, entries removed because a broader new
	// root captured them, and children re-installed by uncoverings.
	// Monotone — they prove covering did work even when the live set
	// momentarily holds no implication pair and the gauges read zero.
	Covering          bool
	CoverEntries      int
	CoverObligations  int
	CoverSavingsRatio float64
	CoveredAdds       int64
	CoverCaptures     int64
	CoverPromotions   int64
	// Admission telemetry (WithAdmission; all zero when admission is
	// off): AdmissionChecks counts static fit checks run before
	// registry mutation, AdmissionRejects the subscribes they refused.
	// FitHeadroomEntries is the minimum remaining entry headroom across
	// all switches with an installed program (the tightest table on the
	// tightest switch); FitStageSRAMPct the fullest stage SRAM bank
	// anywhere in the deployment.
	Admission          bool
	AdmissionChecks    int64
	AdmissionRejects   int64
	FitHeadroomEntries int
	FitStageSRAMPct    float64
	// Latency is the event→all-switches-applied distribution.
	Latency LatencyStats
}

// Stats returns a snapshot of the service counters: one cut, taken
// under the service lock.
func (s *Service) Stats() Snapshot {
	s.mu.Lock()
	snap := s.stats
	snap.QueueDepth = s.inflight
	var progs []*compiler.Program
	for _, q := range s.queues {
		snap.EngineNodes += q.nodes
		snap.EngineMemoEntries += q.memo
		snap.EngineBytes += q.bytes
		progs = append(progs, q.prog)
	}
	if s.rec.Covering() {
		snap.Covering = true
		snap.CoverEntries, snap.CoverObligations = s.rec.CoverStats()
		if total := snap.CoverEntries + snap.CoverObligations; total > 0 {
			snap.CoverSavingsRatio = float64(snap.CoverObligations) / float64(total)
		}
		ctr := s.rec.CoverTotals()
		snap.CoveredAdds = ctr.CoveredAdds
		snap.CoverCaptures = ctr.Captures
		snap.CoverPromotions = ctr.Promotions
	}
	lat := s.latency
	lat.ring = slices.Clone(lat.ring)
	s.mu.Unlock()
	if m := s.cfg.Admission; m != nil {
		snap.Admission = true
		// Layouts are cached per program, and programs are immutable.
		first := true
		for _, p := range progs {
			l := m.Layout(p)
			if l == nil {
				continue
			}
			if h := l.MinHeadroom(); first || h < snap.FitHeadroomEntries {
				snap.FitHeadroomEntries = h
			}
			if pct := l.MaxStageSRAMPct(); pct > snap.FitStageSRAMPct {
				snap.FitStageSRAMPct = pct
			}
			first = false
		}
	}
	snap.Latency = lat.summary()
	return snap
}

func (l LatencyStats) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v max=%v", l.N, l.P50, l.P90, l.P99, l.Max)
}

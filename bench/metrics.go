package main

import (
	"fmt"
	"math"
)

// metricDef names one metric. The tables below are the source of the
// names in BENCHMARK.json; bench_test.go checks the two agree.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

// endToEnd metrics come from the untraced run and are defined on every
// workload. An operation is one wire frame in → every delivery it causes
// read by the caller: through one switch on the dataplane workloads,
// through the simulated fat tree that the control plane configured on
// ctl_churn. Its latency is the wall time of the 256-frame batch that
// carried it. The four time-based metrics are scaled to the host's
// nominal memory speed (hostprobe.go); the counts are as counted.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"cpu_us_per_op", "us", false},
	{"latency_p50_ms", "ms", false},
	{"allocs_per_op", "count", false},
	{"alloc_bytes_per_op", "B", false},
	{"table_entries", "count", false},
}

// perLayer metrics come from the traced run only. A workload reports 0
// (n=0) for a layer it does not exercise.
var perLayer = []metricDef{
	{"packet.decode_ns_per_msg", "ns", false},
	{"packet.decode_allocs_per_msg", "count", false},
	{"packet.decode_bytes_per_msg", "B", false},
	{"packet.decode_share", "ratio", false},
	{"pipeline.process_share", "ratio", false},
	{"pipeline.batch_ns_per_msg", "ns", false},
	{"pipeline.batch_mpps", "Mpps", true},
	{"pipeline.batch_allocs_per_pkt", "count", false},
	{"pipeline.batch_p99_us", "us", false},
	{"pipeline.leaf_hit_ratio", "ratio", true},
	{"pipeline.leaf_fill_ratio", "ratio", true},
	{"pipeline.nocache_ns_per_msg", "ns", false},
	{"pipeline.msgs_per_pkt", "count", false},
	{"pipeline.deliveries_per_pkt", "count", false},
	{"pipeline.state_updates_per_msg", "count", false},
	{"pipeline.recirculations", "count", false},
	{"pipeline.bytes_path_ns_per_pkt", "ns", false},
	{"pipeline.scale_ncpu_x", "ratio", true},
	{"pipeline.install_us", "us", false},
	{"compiler.lookup_ns_per_msg", "ns", false},
	{"compiler.stages", "count", false},
	{"compiler.max_state_fanout", "count", false},
	{"compiler.entries", "count", false},
	{"bdd.nodes", "count", false},
	{"subscription.parse_us_per_rule", "us", false},
	{"subscription.normalize_us_per_rule", "us", false},
	{"compiler.compile_ms", "ms", false},
	{"compiler.compile_allocs", "count", false},
	{"compiler.compile_mb", "MB", false},
	{"subscription.normalize_us", "us", false},
	{"bdd.add_ms", "ms", false},
	{"bdd.build_ms", "ms", false},
	{"compiler.frombdd_ms", "ms", false},
	{"compiler.diff_ms", "ms", false},
	{"compiler.inc_apply_ms", "ms", false},
	{"compiler.inc_apply_allocs", "count", false},
	{"compiler.reuse_ratio", "ratio", true},
	{"ctlplane.batches_per_event", "count", false},
	{"ctlplane.installs_per_event", "count", false},
	{"ctlplane.deletes_per_event", "count", false},
	{"ctlplane.keeps_per_event", "count", true},
	{"ctlplane.retries_per_event", "count", false},
	{"ctlplane.fallbacks_per_event", "count", false},
	{"ctlplane.peak_queue_depth", "count", false},
	{"ctlplane.svc_p50_ms", "ms", false},
	{"ctlplane.svc_p99_ms", "ms", false},
	{"ctlplane.direct_p50_ms", "ms", false},
	{"server.updates_per_s", "1/s", true},
	{"server.cpu_ms_per_update", "ms", false},
	{"server.sub_p50_ms", "ms", false},
	{"server.sub_p90_ms", "ms", false},
	{"server.overhead_p50_ms", "ms", false},
	{"controller.deploy_ms", "ms", false},
	{"e2e.latency_p90_ms", "ms", false},
	{"e2e.latency_p99_ms", "ms", false},
	{"host.mem_probe_ms", "ms", false},
	{"trace.consume_share", "ratio", false},
	{"trace.wire_accounted_frac", "ratio", true},
	{"trace.overhead_frac", "ratio", false},
}

// sample is one measured value and the number of observations behind it.
type sample struct {
	value float64
	unit  string
	n     int
}

// results collects the metrics of one run in table order.
type results struct {
	defs   []metricDef
	values map[string]sample
}

func newResults(defs []metricDef) *results {
	return &results{defs: defs, values: make(map[string]sample)}
}

// set records a metric; the name must be in the run's table and is set
// at most once, so a typo or a double report is a bug caught at once.
func (r *results) set(name string, v float64, n int) {
	for _, d := range r.defs {
		if d.name != name {
			continue
		}
		if _, dup := r.values[name]; dup {
			panic("bench: metric reported twice: " + name)
		}
		r.values[name] = sample{value: v, unit: d.unit, n: n}
		return
	}
	panic("bench: metric not in table: " + name)
}

// finish fills per-layer metrics the workload did not exercise with 0
// and rejects a missing or non-finite value anywhere.
func (r *results) finish(fillMissing bool) error {
	for _, d := range r.defs {
		s, ok := r.values[d.name]
		if !ok {
			if !fillMissing {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			r.values[d.name] = sample{unit: d.unit}
			continue
		}
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
	}
	return nil
}

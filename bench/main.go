// Command bench is the repository's benchmark: wire bytes in →
// deliveries out on the dataplane and subscribe request → installed on
// every switch on the control plane, measured end to end (-trace 0) and
// layer by layer (-trace 1). See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench -workload <name|all> -seed N [-seconds S] [-trace 0|1|out.json]
//
// The last line of standard output is one JSON object; the exit status
// is non-zero when any operation failed or an output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns set-ups are timed per run and the median reported, so one
// slow set-up does not decide setup_s.
const setupRuns = 3

// outcome is one run of one workload.
type outcome struct {
	res       *results
	attempted int64
	failed    int64
	// problems describes the first wrong output of each check.
	problems []string
	// notes are printed beside the metrics as comment lines.
	notes []string
	// exact holds counts that must not differ between the untraced and
	// the traced run of one seed.
	exact map[string]int64
	// tr holds the traced run's spans.
	tr *tracer
}

func (o *outcome) fail(n int64, format string, args ...any) {
	if n > 0 {
		o.failed += n
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// timedSetups runs setup 1 or setupRuns times and returns the median
// set-up time.
func timedSetups(cfg config, setup func(i int) error) (float64, int, error) {
	runs := setupRuns
	if cfg.traced {
		runs = 1
	}
	var setups []float64
	for i := 0; i < runs; i++ {
		runtime.GC()
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		if err := setup(i); err != nil {
			return 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return median(setups), runs, nil
}

func runDataplane(cfg config, ds dataplaneSpec, probe *memProbe) (*outcome, error) {
	o := &outcome{exact: make(map[string]int64)}
	var (
		d   *dataplane
		rec *recorder
	)
	setupS, setupN, err := timedSetups(cfg, func(int) (err error) {
		d, rec = nil, &recorder{}
		d, err = setupDataplane(ds, cfg.seed, rec.observe)
		return err
	})
	if err != nil {
		return nil, err
	}
	warm := d.sw.Stats()
	o.exact["table_entries"] = int64(d.prog.TotalEntries())
	o.exact["warm_messages"] = warm.Messages
	o.exact["warm_deliveries"] = warm.Deliveries
	o.exact["warm_state_updates"] = warm.StateUpdates
	o.exact["warm_recirculations"] = warm.Recirculations

	bad, first, err := checkDeliveries(d.rules, rec.seen)
	if err != nil {
		return nil, err
	}
	o.attempted += int64(rec.frames)
	o.fail(int64(bad), "%d of %d verified frames delivered wrongly; first: %s", bad, rec.frames, first)
	rec = nil
	runtime.GC()

	if !cfg.traced {
		o.res = newResults(endToEnd)
		o.res.set("table_entries", float64(d.prog.TotalEntries()), 1)
		o.attempted += runWireE2E(cfg.seconds, d.batch, probe, setupS, setupN, o)
	} else {
		o.res = newResults(perLayer)
		o.tr = newTracer(cfg.workload)
		if err := runDataplaneLayers(d, cfg.seconds, o.tr, o.res, warm); err != nil {
			return nil, err
		}
	}
	o.fail(d.decodeErrs, "%d frames failed to decode", d.decodeErrs)
	return o, nil
}

func runCtl(cfg config, probe *memProbe) (*outcome, error) {
	o := &outcome{exact: make(map[string]int64)}
	var run *ctlplaneRun
	setupS, setupN, err := timedSetups(cfg, func(i int) (err error) {
		if run != nil {
			run.close()
		}
		run, err = setupCtl(cfg, fmt.Sprintf("events-%d.log", i))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer run.close()
	o.exact["table_entries"] = int64(run.tables)

	// Churn first, so the delivery check and the fabric loop below run on
	// tables the incremental path produced.
	var ch churnResult
	if !cfg.traced {
		o.res = newResults(endToEnd)
		o.res.set("table_entries", float64(run.tables), 1)
		ch = run.churn(0, cfg.scaled(settleEvents), run.overHTTP(nil))
	} else {
		o.res = newResults(perLayer)
		o.tr = newTracer(cfg.workload)
		if ch, err = runCtlLayers(run, cfg.seconds, o.tr, o.res); err != nil {
			return nil, err
		}
	}
	o.attempted += int64(len(ch.latencies))
	o.fail(int64(ch.failed), "%d of %d requests failed; first: %v", ch.failed, len(ch.latencies), ch.firstErr)

	// The network must deliver exactly what the surviving filters accept.
	svc := run.daemon.Service()
	svc.Quiesce()
	if f := svc.Stats().Failures; f > 0 {
		o.fail(f, "%d apply batches failed (Snapshot.Failures)", f)
	}
	checks := cfg.scaled(fabricChecks)
	bad, first := checkFabric(run.sim, svc.HostFilters(), len(run.net.Hosts), cfg.seed, checks)
	o.attempted += int64(checks)
	o.fail(int64(bad), "%d of %d publications delivered wrongly; first: %s", bad, checks, first)

	if !cfg.traced {
		o.attempted += runWireE2E(cfg.seconds, run.fabricBatch, probe, setupS, setupN, o)
	} else if err := runWireTraced(cfg.seconds*0.2, o.tr, run.fabricBatch, o.res); err != nil {
		return nil, err
	}
	o.fail(run.decodeErrs, "%d frames failed to decode", run.decodeErrs)
	if looped := run.sim.Traffic().Looped; looped > 0 {
		o.fail(looped, "%d packets hit the hop limit", looped)
	}
	return o, nil
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(cfg config) (*outcome, error) {
	probe, err := newMemProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var o *outcome
	if ds, ok := dataplaneSpecFor(cfg.workload, cfg); ok {
		o, err = runDataplane(cfg, ds, probe)
	} else if cfg.workload == "ctl_churn" {
		o, err = runCtl(cfg, probe)
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %v and all)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.traced {
		// The traced run's numbers are as timed; this says on what host.
		o.res.set("host.mem_probe_ms", float64(probe.run())/1e6, 1)
	}
	if err := o.res.finish(cfg.traced); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.tracePath != "" {
		counts := make(map[string]float64, len(o.res.values))
		for name, s := range o.res.values {
			counts[name] = s.value
		}
		err := writeTrace(cfg.tracePath, traceFile{
			Workload: cfg.workload, Seed: cfg.seed, Spans: o.tr.spans, Totals: o.tr.totals(), Counts: counts,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", cfg.workload, err)
		}
	}
	return o, nil
}

// metricJSON is one metric in the final JSON line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   any   `json:"metrics"`
}

func printMetrics(w io.Writer, workload string, o *outcome) map[string]metricJSON {
	res := o.res
	out := make(map[string]metricJSON, len(res.defs))
	for _, note := range o.notes {
		fmt.Fprintf(w, "# %s %s\n", workload, note)
	}
	for _, d := range res.defs {
		s := res.values[d.name]
		fmt.Fprintf(w, "%s %s %v %s n=%d\n", workload, d.name, s.value, s.unit, s.n)
		out[d.name] = metricJSON{Value: s.value, Unit: s.unit}
	}
	return out
}

// benchMain is main without the process exit, so the smoke test can run
// it.
func benchMain(cfg config, w io.Writer) error {
	rep := report{}
	var problems []string
	if cfg.workload != "all" {
		o, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		rep.Metrics = printMetrics(w, cfg.workload, o)
		rep.Attempted, rep.Failed, problems = o.attempted, o.failed, o.problems
	} else {
		// Everything: each workload untraced then traced; the two runs
		// must agree on every exact count.
		all := make(map[string]map[string]metricJSON)
		for _, name := range workloadNames {
			all[name] = make(map[string]metricJSON)
			var exact map[string]int64
			for _, traced := range []bool{false, true} {
				wcfg := cfg
				wcfg.workload, wcfg.traced, wcfg.tracePath, wcfg.start = name, traced, "", time.Now()
				o, err := runWorkload(wcfg)
				if err != nil {
					return err
				}
				for k, v := range printMetrics(w, name, o) {
					all[name][k] = v
				}
				rep.Attempted += o.attempted
				rep.Failed += o.failed
				problems = append(problems, o.problems...)
				if exact == nil {
					exact = o.exact
					continue
				}
				for k, v := range exact {
					if o.exact[k] != v {
						rep.Failed++
						problems = append(problems, fmt.Sprintf("%s: %s is %d untraced and %d traced", name, k, v, o.exact[k]))
					}
				}
			}
		}
		rep.Metrics = all
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, problems)
	}
	return nil
}

func main() {
	cfg := config{start: time.Now()}
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	trace := flag.String("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run; any other value: 1, and write the spans to that file")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The daemon's event log goes under the build directory of the
	// checkout the benchmark was started in, never outside it.
	tmp := filepath.Join(".bench_build", fmt.Sprintf("camus-bench-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg.tmpDir = tmp
	if cfg.traced = *trace != "0"; cfg.traced && *trace != "1" {
		cfg.tracePath = *trace
	}
	err := benchMain(cfg, os.Stdout)
	if rmErr := os.RemoveAll(tmp); err == nil {
		err = rmErr
	}
	_ = os.Remove(".bench_build") // only succeeds when nothing else uses it
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

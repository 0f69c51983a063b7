// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, so the perf trajectory is diffable
// across PRs, and doubles as the CI perf guard: with -baseline it
// compares the parsed run against a checked-in report and fails on
// allocation regressions.
//
// Report mode (stdin → JSON):
//
//	go test -run '^$' -bench Compile10k -benchmem . \
//	    | benchjson -filter Compile10k -out BENCH_compile.json
//
// Guard mode (stdin → exit code):
//
//	go test -run '^$' -bench 'Compile500$|IncrementalAddOne' -benchtime 1x -benchmem ./internal/compiler \
//	    | benchjson -baseline perf-baseline.json -max-ratio 2
//
// The host line TestMain prints ("host: NumCPU=…") is captured into the
// report, keeping single-core caveats attached to the numbers they
// qualify.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric series (Mpps, updates/s, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON envelope: host shape plus results.
type Report struct {
	Host       string      `json:"host,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   	 5	  123 ns/op	 456 B/op	 7 allocs/op	 8.9 Mpps".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r *bufio.Scanner, filter *regexp.Regexp) (*Report, error) {
	rep := &Report{}
	for r.Scan() {
		line := r.Text()
		if strings.HasPrefix(line, "host: ") {
			rep.Host = strings.TrimPrefix(line, "host: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: name, Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, r.Err()
}

// guard fails (returns messages) when a benchmark in the baseline ran
// with more than ratio× its baseline allocs/op, or is missing from the
// current run — a silently skipped benchmark must not pass the guard.
// A baseline of 0 allocs/op is an exact invariant: any allocation at
// all fails, since a ratio can't express "zero stays zero". Throughput
// is not guarded here (ns/op and Mpps move with the host); BENCHMARK.json
// bounds it on paired runs.
func guard(baseline, current *Report, ratio float64) []string {
	cur := make(map[string]Benchmark, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var fails []string
	names := make([]string, 0, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	base := make(map[string]Benchmark, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	for _, name := range names {
		bb := base[name]
		cb, ok := cur[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: present in baseline but missing from this run", name))
			continue
		}
		switch {
		case bb.AllocsPerOp == 0 && cb.AllocsPerOp > 0:
			fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op vs zero-alloc baseline",
				name, cb.AllocsPerOp))
		case bb.AllocsPerOp > 0 && cb.AllocsPerOp > ratio*bb.AllocsPerOp:
			fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (> %.1fx)",
				name, cb.AllocsPerOp, bb.AllocsPerOp, ratio))
		}
	}
	return fails
}

func main() {
	filterPat := flag.String("filter", "", "only include benchmarks matching this regexp (name without the Benchmark prefix)")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	baselinePath := flag.String("baseline", "", "guard mode: compare against this baseline report and exit 1 on regression")
	maxRatio := flag.Float64("max-ratio", 2.0, "guard mode: fail when allocs/op exceeds ratio x baseline (a zero-alloc baseline is exact: any alloc fails)")
	flag.Parse()

	var filter *regexp.Regexp
	if *filterPat != "" {
		filter = regexp.MustCompile(*filterPat)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	rep, err := parse(sc, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		var baseline Report
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse baseline: %v\n", err)
			os.Exit(2)
		}
		fails := guard(&baseline, rep, *maxRatio)
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", f)
		}
		if len(fails) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmark(s) within %.1fx of baseline allocs/op\n",
			len(baseline.Benchmarks), *maxRatio)
		return
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// manifest mirrors the parts of BENCHMARK.json the benchmark must agree
// with.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables: BENCHMARK.json and the tables in metrics.go
// and workloads.go name the same workloads and metrics, with the same
// units and directions.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames, " "); got != want {
		t.Errorf("workloads = %q, want %q", got, want)
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table {%s %s %s}", kind, i, g, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// TestSmoke runs every workload once untraced and once traced on pools
// cut 16× and checks that the run is correct and prints exactly the
// metrics BENCHMARK.json names, once each, with finite values.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				cfg := config{
					workload: name, seed: 1, seconds: 0.3, traced: trace == "1",
					start: time.Now(), small: true, tmpDir: t.TempDir(),
				}
				var out bytes.Buffer
				if err := benchMain(cfg, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				want := m.EndToEnd
				if trace == "1" {
					want = m.PerLayer
				}
				printed := make(map[string]int)
				for _, line := range lines[:len(lines)-1] {
					if strings.HasPrefix(line, "# ") {
						continue // a note, not a metric
					}
					f := strings.Fields(line)
					if len(f) != 5 || f[0] != name || !strings.HasPrefix(f[4], "n=") {
						t.Fatalf("malformed metric line %q", line)
					}
					printed[f[1]]++
				}
				var rep struct {
					Correct   bool                  `json:"correct"`
					Attempted int64                 `json:"attempted"`
					Failed    int64                 `json:"failed"`
					Metrics   map[string]metricJSON `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the JSON report: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("report: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				for _, mm := range want {
					if printed[mm.Name] != 1 {
						t.Errorf("metric %s printed %d times, want once", mm.Name, printed[mm.Name])
					}
					v, ok := rep.Metrics[mm.Name]
					if !ok || v.Unit != mm.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s in the report: %+v (present %v), want a finite value in %s", mm.Name, v, ok, mm.Unit)
					}
				}
				if len(printed) != len(want) || len(rep.Metrics) != len(want) {
					t.Errorf("printed %d metrics and reported %d, BENCHMARK.json names %d", len(printed), len(rep.Metrics), len(want))
				}
			})
		}
	}
}

// TestUnknownWorkload: a misspelt workload is an error, not an empty
// run.
func TestUnknownWorkload(t *testing.T) {
	cfg := config{workload: "itch", seed: 1, seconds: 0.1, start: time.Now(), small: true, tmpDir: t.TempDir()}
	if err := benchMain(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestInputsFollowSeed: the same seed generates byte-identical frame
// pools, rule text and event choices; another seed does not.
func TestInputsFollowSeed(t *testing.T) {
	cfg := config{small: true}
	for _, name := range workloadNames {
		digest := func(seed int64) string {
			if ds, ok := dataplaneSpecFor(name, cfg); ok {
				d, err := setupDataplane(ds, seed, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return d.inputDigest()
			}
			pool, err := itchFrames(seed, cfg.scaled(fabricFrames))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return generateCtl(seed, 16, 1).digest() + string(pool.buf)
		}
		if digest(1) != digest(1) {
			t.Errorf("%s: two set-ups with seed 1 differ", name)
		}
		if digest(1) == digest(2) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", name)
		}
	}
}

// TestOracleCatchesMisdelivery: the delivery check is not vacuous — a
// port dropped from one recorded message is reported with that message.
func TestOracleCatchesMisdelivery(t *testing.T) {
	ds, _ := dataplaneSpecFor("itch_stateful", config{small: true})
	rec := &recorder{}
	d, err := setupDataplane(ds, 1, rec.observe)
	if err != nil {
		t.Fatal(err)
	}
	if bad, first, err := checkDeliveries(d.rules, rec.seen); err != nil || bad != 0 {
		t.Fatalf("clean run: %d bad frames (%s), err %v", bad, first, err)
	}
	for i := range rec.seen {
		if len(rec.seen[i].ports) > 0 {
			rec.seen[i].ports = rec.seen[i].ports[1:]
			break
		}
	}
	bad, first, err := checkDeliveries(d.rules, rec.seen)
	if err != nil || bad != 1 || !strings.Contains(first, "expected ports") {
		t.Fatalf("tampered run: %d bad frames (%q), err %v; want exactly one", bad, first, err)
	}
}

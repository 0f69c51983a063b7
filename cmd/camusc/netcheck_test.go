package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// TestNetcheckCleanExamples is the acceptance gate: the shipped rule
// files certify clean on both the fat tree (both policies) and a
// general MST++ topology, with and without α-approximation.
func TestNetcheckCleanExamples(t *testing.T) {
	cases := [][]string{
		{"-rules", filepath.Join("testdata", "itch.rules"), "-topo", "fattree", "-policy", "tr"},
		{"-rules", filepath.Join("testdata", "itch.rules"), "-topo", "fattree", "-policy", "mr", "-alpha", "10"},
		{"-rules", filepath.Join("testdata", "itch.rules"), "-topo", "mstpp", "-nodes", "24", "-alpha", "100"},
		{"-rules", filepath.Join("testdata", "itchfeed.rules"), "-topo", "fattree", "-policy", "tr"},
		{"-rules", filepath.Join("testdata", "itchfeed.rules"), "-topo", "mstpp", "-nodes", "20"},
		// Covering mode: the reduced tables must carry the same
		// certificate against the full subscription set.
		{"-rules", filepath.Join("testdata", "itch.rules"), "-topo", "fattree", "-policy", "tr", "-covering"},
		{"-rules", filepath.Join("testdata", "itch.rules"), "-topo", "mstpp", "-nodes", "24", "-covering"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc[1:], "_"), func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append([]string{"-spec", filepath.Join("testdata", "itch.spec")}, tc...)
			code := runNetcheck(args, &out, &errb)
			if code != 0 {
				t.Fatalf("exit code = %d, want 0; stderr: %s\nstdout: %s",
					code, errb.String(), out.String())
			}
			if !strings.Contains(out.String(), "network certificate complete") {
				t.Errorf("expected a complete certificate, got: %s", out.String())
			}
			covering := false
			for _, a := range tc {
				if a == "-covering" {
					covering = true
				}
			}
			if covering && !strings.Contains(out.String(), "covering reduction:") {
				t.Errorf("expected a covering reduction line, got: %s", out.String())
			}
		})
	}
}

// TestNetcheckJSON checks the machine-readable envelope and the 0 exit
// code on a clean run.
func TestNetcheckJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := runNetcheck([]string{
		"-spec", filepath.Join("testdata", "itch.spec"),
		"-rules", filepath.Join("testdata", "itch.rules"),
		"-json",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	var rep struct {
		Tool     string `json:"tool"`
		Rules    int    `json:"rules"`
		Findings []any  `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Tool != "camusc-netcheck" {
		t.Errorf("tool = %q", rep.Tool)
	}
	if rep.Rules != 5 {
		t.Errorf("rules = %d, want 5", rep.Rules)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("findings = %v", rep.Findings)
	}
}

// TestNetcheckUsageErrors checks the exit-2 contract.
func TestNetcheckUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runNetcheck(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := runNetcheck([]string{
		"-spec", filepath.Join("testdata", "itch.spec"),
		"-rules", filepath.Join("testdata", "itch.rules"),
		"-topo", "torus",
	}, &out, &errb); code != 2 {
		t.Errorf("bad topo: exit %d, want 2", code)
	}
}

// TestNetcheckCoveringOutput pins `netcheck -covering` on the shipped
// rules to the report it printed when camusc compiled the reduced tables
// in its own loop; the deployment now comes from controller.Compile, which
// also fills the per-switch stats.
func TestNetcheckCoveringOutput(t *testing.T) {
	for policy, tail := range map[string]string{
		"tr": "  covering reduction: 100 → 71 port entries (29 elided, 1.41× smaller)\n" +
			"  network certificate complete: 1872 packet classes propagated, delivery exact, loop-free\n",
		"mr": "  covering reduction: 51 → 45 port entries (6 elided, 1.13× smaller)\n" +
			"  network certificate complete: 1616 packet classes propagated, delivery exact, loop-free\n",
	} {
		var out, errb bytes.Buffer
		code := runNetcheck([]string{
			"-spec", filepath.Join("testdata", "itch.spec"),
			"-rules", filepath.Join("testdata", "itch.rules"),
			"-policy", policy, "-covering",
		}, &out, &errb)
		want := "itch.rules: 5 rules, 0 findings\n" + tail
		if code != 0 || out.String() != want {
			t.Errorf("-policy %s: exit %d, output\n%swant\n%s", policy, code, out.String(), want)
		}
	}

	sp := spec.MustParse("itch", "header itch_order { price : u32 @field; stock : str8 @field_exact; }")
	parser := subscription.NewParser(sp)
	net := topology.MustFatTree(4)
	byHost := make([][]subscription.Expr, len(net.Hosts))
	for h, src := range []string{"stock == GOOGL", "stock == GOOGL and price > 500"} {
		e, err := parser.ParseFilter(src)
		if err != nil {
			t.Fatal(err)
		}
		byHost[h] = []subscription.Expr{e}
	}
	d, st, err := fatTreeDeploy(net, sp, byHost, routing.Options{Policy: routing.TrafficReduction}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Removed() == 0 {
		t.Errorf("nested pair reduced nothing: %+v", st)
	}
	for i, stat := range d.Stats {
		if stat.Switch != net.Switches[i].Name || stat.Rules != len(d.Routing.RulesForSwitch(i)) ||
			stat.Entries != d.Programs[i].TotalEntries() {
			t.Errorf("switch %d: stats %+v do not describe its program", i, stat)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camus/internal/analysis/fitcheck"
	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// TestCompileTestdata exercises the camusc pipeline on the shipped
// sample files end to end (read → parse spec → parse rules → compile →
// render), mirroring main().
func TestCompileTestdata(t *testing.T) {
	specSrc, err := os.ReadFile(filepath.Join("testdata", "itch.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse("itch", string(specSrc))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	rulesSrc, err := os.ReadFile(filepath.Join("testdata", "itch.rules"))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := subscription.NewParser(sp).ParseRules(string(rulesSrc))
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	if len(rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(rules))
	}
	for _, lastHop := range []bool{false, true} {
		prog, err := compiler.Compile(sp, rules, compiler.Options{
			LastHop: lastHop,
			BDD:     bdd.Options{},
		})
		if err != nil {
			t.Fatalf("compile(lastHop=%v): %v", lastHop, err)
		}
		out := prog.String()
		for _, want := range []string{"table", "Leaf", "fwd(1"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q", want)
			}
		}
		if l := fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true}); !l.Fits() {
			t.Errorf("sample program does not fit: %s", l)
		}
		dot := prog.BDD.Dot()
		if !strings.Contains(dot, "digraph") {
			t.Error("dot output broken")
		}
		wantRegs := 0
		if lastHop {
			wantRegs = 1
		}
		if n := compiler.RegisterCount(prog); n != wantRegs {
			t.Errorf("lastHop=%v: registers = %d, want %d", lastHop, n, wantRegs)
		}
	}
}

// TestCompileWarnsWhenFitFails: `camusc` and `camusc fit` read one fit
// model, so the compile command warns exactly when fit exits 1. The
// seeded resources.rules corpus needs five registers as a last-hop
// program and none upstream.
func TestCompileWarnsWhenFitFails(t *testing.T) {
	corpus := filepath.Join("..", "..", "internal", "analysis", "rulecheck", "testdata", "corpus")
	for _, tc := range []struct {
		rules, lastHop string
		fits           bool
	}{
		{"resources.rules", "-last-hop=true", false},
		{"resources.rules", "-last-hop=false", true},
		{"shadowed.rules", "-last-hop=true", true},
	} {
		args := []string{"-spec", filepath.Join(corpus, "market.spec"), "-rules", filepath.Join(corpus, tc.rules), tc.lastHop}
		var out, errb bytes.Buffer
		if code := runCompile(append(args, "-q"), &out, &errb); code != 0 {
			t.Fatalf("%s %s: compile exit %d: %s", tc.rules, tc.lastHop, code, errb.String())
		}
		warned := strings.Contains(errb.String(), "warning: program exceeds")
		fitCode := runFit(args, &bytes.Buffer{}, &bytes.Buffer{})
		if warned != (fitCode == 1) || warned == tc.fits {
			t.Errorf("%s %s: compile warned %v, fit exit %d, want fits=%v\n%s",
				tc.rules, tc.lastHop, warned, fitCode, tc.fits, out.String())
		}
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"itch.spec":             "itch",
		"/a/b/itch.spec":        "itch",
		"noext":                 "noext",
		"/deep/path/x.y.z":      "x",
		"rel/path/market.rules": "market",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

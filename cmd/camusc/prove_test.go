package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProveCleanExamples certifies the shipped sample rules: the
// translation validator must prove the compiled program equivalent, in
// both last-hop and upstream modes.
func TestProveCleanExamples(t *testing.T) {
	for _, lastHop := range []string{"-last-hop=true", "-last-hop=false"} {
		var out, errb bytes.Buffer
		code := runProve([]string{
			"-spec", filepath.Join("testdata", "itch.spec"),
			"-rules", filepath.Join("testdata", "itch.rules"),
			lastHop,
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit code = %d, want 0; stderr: %s\nstdout: %s",
				lastHop, code, errb.String(), out.String())
		}
		if !strings.Contains(out.String(), "proof complete") {
			t.Errorf("%s: expected a completed proof, got: %s", lastHop, out.String())
		}
	}
}

// TestProveParseRecovery: bad lines become findings, surviving rules
// still get proved, and the envelope carries the prove tool name.
func TestProveParseRecovery(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "mixed.rules")
	src := "stock == GOOGL: fwd(1)\nnosuchfield == 1: fwd(2)\n"
	if err := os.WriteFile(rules, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := runProve([]string{
		"-spec", filepath.Join("testdata", "itch.spec"),
		"-rules", rules,
		"-json",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	var rep struct {
		Tool     string `json:"tool"`
		Findings []struct {
			Tool string `json:"tool"`
			Kind string `json:"kind"`
			Line int    `json:"line"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Tool != "camusc-prove" {
		t.Errorf("tool = %q, want camusc-prove", rep.Tool)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "unknown-field" && f.Line == 2 && f.Tool == "camusc-prove" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing unknown-field finding at line 2: %s", out.String())
	}
}

// TestProveUsageErrors checks the exit-code contract's infrastructure
// band.
func TestProveUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runProve(nil, &out, &errb); code != 2 {
		t.Errorf("missing flags: exit = %d, want 2", code)
	}
	errb.Reset()
	if code := runProve([]string{"-spec", "nope.spec", "-rules", "nope.rules"}, &out, &errb); code != 2 {
		t.Errorf("missing files: exit = %d, want 2", code)
	}
}

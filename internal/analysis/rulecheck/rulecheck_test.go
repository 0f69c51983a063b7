package rulecheck

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"camus/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

func corpusSpec(t *testing.T) *spec.Spec {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "corpus", "market.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse("market", string(src))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestCorpusGoldens verifies every corpus rule file and compares the
// human-readable report with its .golden sibling (regenerate with
// `go test ./internal/analysis/rulecheck -update`).
func TestCorpusGoldens(t *testing.T) {
	sp := corpusSpec(t)
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.rules"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	sort.Strings(files)
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".rules")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rep := Verify(sp, filepath.Base(f), string(src))
			got := rep.String()
			golden := strings.TrimSuffix(f, ".rules") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestCorpusJSONGolden locks the machine-readable format.
func TestCorpusJSONGolden(t *testing.T) {
	sp := corpusSpec(t)
	f := filepath.Join("testdata", "corpus", "unsat.rules")
	src, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(sp, "unsat.rules", string(src))
	got := rep.JSON() + "\n"
	golden := filepath.Join("testdata", "corpus", "unsat.json.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("JSON drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSeededFindingsDetected spells out the acceptance criteria
// independent of golden formatting: every seeded bad rule is detected
// with the right kind.
func TestSeededFindingsDetected(t *testing.T) {
	sp := corpusSpec(t)
	read := func(name string) *Report {
		t.Helper()
		src, err := os.ReadFile(filepath.Join("testdata", "corpus", name))
		if err != nil {
			t.Fatal(err)
		}
		return Verify(sp, name, string(src))
	}

	unsat := read("unsat.rules")
	wantKinds(t, unsat, map[int]Kind{0: KindUnsatisfiable, 1: KindUnsatisfiable, 2: KindUnsatisfiable, 4: KindUnsatisfiable})
	if hasFindingFor(unsat, 3) {
		t.Errorf("unsat.rules: satisfiable control rule 3 was flagged")
	}

	// Rule 1 is inside rule 0 with the identical action: the sharper
	// redundant diagnosis replaces the union-shadow one. Rule 4 needs
	// the union of 2 and 3, so it stays a plain shadow.
	sh := read("shadowed.rules")
	wantKinds(t, sh, map[int]Kind{1: KindRedundant, 4: KindShadowed})
	for _, id := range []int{0, 2, 3} {
		if hasFindingFor(sh, id) {
			t.Errorf("shadowed.rules: rule %d wrongly flagged", id)
		}
	}
	for _, f := range sh.Findings {
		switch f.RuleID {
		case 1:
			if f.Kind == KindShadowed {
				t.Error("redundant rule 1 must not double-report as shadowed")
			}
			if len(f.Related) != 1 || f.Related[0] != 0 {
				t.Errorf("redundancy witness of rule 1 = %v, want [0]", f.Related)
			}
		case 4:
			if len(f.Related) != 2 || f.Related[0] != 2 || f.Related[1] != 3 {
				t.Errorf("shadow cover of rule 4 = %v, want [2 3]", f.Related)
			}
		}
	}

	red := read("redundant.rules")
	wantKinds(t, red, map[int]Kind{1: KindRedundant, 3: KindRedundant, 5: KindRedundant})
	for _, id := range []int{0, 2, 4, 6, 7} {
		if hasFindingFor(red, id) {
			t.Errorf("redundant.rules: rule %d wrongly flagged", id)
		}
	}
	wantWitness := map[int]int{1: 0, 3: 2, 5: 4}
	for _, f := range red.Findings {
		if want, ok := wantWitness[f.RuleID]; ok {
			if len(f.Related) != 1 || f.Related[0] != want {
				t.Errorf("redundancy witness of rule %d = %v, want [%d]", f.RuleID, f.Related, want)
			}
		}
	}

	conf := read("conflict.rules")
	var kinds []Kind
	for _, f := range conf.Findings {
		kinds = append(kinds, f.Kind)
	}
	if n := countKind(conf, KindConflict); n != 2 {
		t.Errorf("conflict.rules: %d conflict findings (want 2): %v", n, kinds)
	}

	unk := read("unknown.rules")
	if n := countKind(unk, KindUnknownField); n != 2 {
		t.Errorf("unknown.rules: %d unknown-field findings (want 2)", n)
	}
	if n := countKind(unk, KindParseError); n != 2 {
		t.Errorf("unknown.rules: %d parse-error findings (want 2)", n)
	}
	if unk.Rules != 1 {
		t.Errorf("unknown.rules: %d rules survived parsing (want 1: the clean control)", unk.Rules)
	}

	// The resources entry compiles fine but demands five distinct
	// aggregate windows — one more than the modeled stateful registers.
	// The verdict is delegated to fitcheck's per-stage placement model.
	res := read("resources.rules")
	if n := countKind(res, KindResources); n != 1 {
		t.Errorf("resources.rules: %d resources findings (want 1)", n)
	}
	for _, f := range res.Findings {
		if f.Kind == KindResources {
			if f.Severity != SevError {
				t.Errorf("resources finding severity = %s, want error", f.Severity)
			}
			if !strings.Contains(f.Message, "fit-registers") {
				t.Errorf("resources finding must carry the fit dimension, got: %s", f.Message)
			}
		}
	}
}

// TestRepoExamplesClean asserts the repo's own shipped rule files carry
// zero findings.
func TestRepoExamplesClean(t *testing.T) {
	specSrc, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "camusc", "testdata", "itch.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse("itch", string(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	rulesSrc, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "camusc", "testdata", "itch.rules"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(sp, "itch.rules", string(rulesSrc))
	for _, f := range rep.Findings {
		t.Errorf("itch.rules should be clean, got: %s", f)
	}
	if rep.Rules != 5 {
		t.Errorf("itch.rules parsed %d rules, want 5", rep.Rules)
	}
}

func wantKinds(t *testing.T, rep *Report, want map[int]Kind) {
	t.Helper()
	for id, kind := range want {
		found := false
		for _, f := range rep.Findings {
			if f.RuleID == id && f.Kind == kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: missing %s finding for rule %d; got %v", rep.File, kind, id, rep.Findings)
		}
	}
}

func hasFindingFor(rep *Report, id int) bool {
	for _, f := range rep.Findings {
		if f.RuleID == id {
			return true
		}
	}
	return false
}

func countKind(rep *Report, k Kind) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

package rulecheck

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"camus/internal/analysis/report"
	"camus/internal/compiler"
	"camus/internal/packet"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
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

	// The cache-hiding entries refine cacheable key-only rules on the
	// str16 name field, which cannot live in the packed leaf-cache key.
	// The aggregate refinement (rule 4) compiles to an uncacheable leaf
	// and must stay clean.
	ch := read("cachehiding.rules")
	wantKinds(t, ch, map[int]Kind{1: KindCacheHiding, 3: KindCacheHiding})
	for _, id := range []int{0, 2, 4} {
		if hasFindingFor(ch, id) {
			t.Errorf("cachehiding.rules: rule %d wrongly flagged", id)
		}
	}
	for _, f := range ch.Findings {
		if f.Kind != KindCacheHiding {
			continue
		}
		if f.Severity != SevWarning {
			t.Errorf("cache-hiding severity = %s, want warning", f.Severity)
		}
		if f.Counterexample == nil || f.Counterexample.Packet == "" {
			t.Errorf("cache-hiding finding for rule %d lacks a wire counterexample", f.RuleID)
		}
		switch f.RuleID {
		case 1:
			if len(f.Related) != 1 || f.Related[0] != 0 {
				t.Errorf("hiding cover of rule 1 = %v, want [0]", f.Related)
			}
		case 3:
			if len(f.Related) != 2 || f.Related[0] != 0 || f.Related[1] != 2 {
				t.Errorf("hiding cover of rule 3 = %v, want [0 2]", f.Related)
			}
		}
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

// TestCacheHidingCounterexampleReplays closes the loop on one seeded
// violation: the finding's wire counterexample is decoded and replayed
// through a leaf-cache-enabled pipeline.Switch whose cache was warmed
// from the coarse rule's region with a same-key packet. The dataplane
// must deliver the merged action set (the walk-purity fill rule refuses
// to memoize the overlap), while the finding's Got field records what a
// naive key-only cache would have served instead.
func TestCacheHidingCounterexampleReplays(t *testing.T) {
	sp := corpusSpec(t)
	src, err := os.ReadFile(filepath.Join("testdata", "corpus", "cachehiding.rules"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(sp, "cachehiding.rules", string(src))
	var cex *report.Counterexample
	for _, f := range rep.Findings {
		if f.Kind == KindCacheHiding && f.RuleID == 1 {
			cex = f.Counterexample
		}
	}
	if cex == nil || cex.Packet == "" {
		t.Fatal("no replayable counterexample on the seeded rule-1 finding")
	}
	wire, err := hex.DecodeString(cex.Packet)
	if err != nil {
		t.Fatalf("counterexample packet is not hex: %v", err)
	}
	m := spec.NewMessage(sp)
	rest := wire
	for _, h := range cex.Headers {
		codec, err := packet.NewHeaderCodec(sp, h)
		if err != nil {
			t.Fatal(err)
		}
		if rest, err = codec.Decode(rest, m); err != nil {
			t.Fatalf("decode %s: %v", h, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decode", len(rest))
	}

	rules, err := subscription.NewParser(sp).ParseRules(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := pipeline.NewSwitch("replay", nil, prog, pipeline.WithIngressDrop(false), pipeline.WithLeafCache(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the leaf cache from the coarse region: same key fields as
	// the witness (name is not a key field), different name.
	coarse := spec.NewMessage(sp)
	coarse.MarkHeader("market")
	coarse.MustSet("stock", spec.StrVal("GOOGL"))
	coarse.MustSet("name", spec.StrVal("ORDINARY"))
	for i := 0; i < 2; i++ {
		sw.Process(&pipeline.Packet{In: 0, Msgs: []*spec.Message{coarse}}, 0)
	}
	// Port 5 may ride along: interior (non-last-hop) switches forward
	// aggregate-refined rules conservatively (§II). The hiding question
	// is about ports 1 and 2: a key-only cache would drop port 2.
	got := map[int]bool{}
	for _, d := range sw.Process(&pipeline.Packet{In: 0, Msgs: []*spec.Message{m}, Bytes: len(wire)}, 0) {
		got[d.Port] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("replayed counterexample delivered to %v, want ports 1 and 2 (port 2 is what a key-only cache would hide)", got)
	}
	if cex.Want != "fwd(1,2)" || cex.Got != "fwd(1)" {
		t.Fatalf("counterexample want/got = %q/%q", cex.Want, cex.Got)
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

// Package rulecheck verifies subscription rule tables symbolically: it
// compiles the table through the repository's BDD path
// (subscription.NormalizeRule → bdd.CoMatch, one merge that names the
// rules matching at each terminal), then reads rule-level properties
// straight off the diagram:
//
//   - unsatisfiable: the rule reaches no terminal — no packet
//     can ever match the filter;
//
//   - shadowed: at every terminal the rule reaches, earlier
//     rules are present too AND their merged actions already subsume
//     this rule's action — the filter is implied by the union of the
//     rules before it and, under Camus merge semantics (§V-D), removing
//     the rule would leave the compiled program unchanged. A rule whose
//     filter is implied but whose action adds a new port or custom
//     action to some region is NOT shadowed: it still shapes forwarding
//     (itch.rules' aggregate rule fwd(5) under the broader GOOGL fwd(2)
//     rule is the canonical example);
//
//   - redundant: a strictly sharper diagnosis of shadowing — some
//     single earlier rule with the identical action is present at every
//     terminal the rule reaches, i.e. the filter is implied by that one
//     rule alone. Deleting the rule provably leaves the table
//     unchanged, and unlike a union shadow there is one specific rule
//     to point at. Redundant rules suppress their shadowed finding;
//
//   - conflict: some terminal carries two rules whose actions
//     contradict — an explicit drop overlapping a forward, or one
//     custom action name invoked with different arguments (e.g. two
//     answerDNS rules giving different addresses for one query).
//
// Soundness rests on the builder's domain pruning (reduction iii):
// with pruning on, every root-to-terminal path is satisfiable — atoms
// constrain single fields against constants, so per-field consistency
// is global consistency — which makes the three reads above exact,
// not approximations.
//
// Scope caveat: exact *relative to the BDD engine*. Because this
// verifier re-queries the same internal/bdd implementation the
// compiler builds on, its checks are self-consistency checks of the
// rule table — a bug shared by the engine and the compiler is
// invisible here by construction. Proving that the *compiled program*
// implements the rules is translation validation and is deliberately
// out of scope: internal/analysis/prove (camusc prove) re-derives the
// semantics independently and certifies the emitted tables.
//
// Fields referenced but absent from the message spec, and any other
// parse or type-check failure, are reported per line with the
// verifier continuing to the next line.
package rulecheck

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"camus/internal/analysis/fitcheck"
	"camus/internal/analysis/report"
	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Tool is this verifier's name in the shared report envelope.
const Tool = "camusc-vet"

// Kind, Severity, Finding and Report alias the shared analysis
// envelope (internal/analysis/report): camusc vet emits the same
// diagnostic schema as camus-lint and camusc prove.
type Kind = report.Kind

const (
	// KindParseError is a rule that failed to parse or type-check.
	KindParseError Kind = "parse-error"
	// KindUnknownField is a parse failure caused by a field missing
	// from the message spec.
	KindUnknownField Kind = "unknown-field"
	// KindUnsatisfiable is a filter no packet can match.
	KindUnsatisfiable Kind = "unsatisfiable"
	// KindShadowed is a filter implied by the union of earlier rules.
	KindShadowed Kind = "shadowed"
	// KindRedundant is a filter implied by a single earlier rule whose
	// action is identical — the sharp special case of shadowing where
	// one specific rule makes this one deletable.
	KindRedundant Kind = "redundant"
	// KindConflict is a pair of overlapping rules with contradictory
	// actions.
	KindConflict Kind = "conflict"
	// KindResources is a table that compiles but exceeds the modeled
	// switch resources.
	KindResources Kind = "resources"
	// KindOverflow reports that symbolic analysis was abandoned
	// because the diagram exceeded the node budget.
	KindOverflow Kind = "analysis-overflow"
)

// Severity grades a finding.
type Severity = report.Severity

const (
	SevError   = report.SevError
	SevWarning = report.SevWarning
)

// Finding is one diagnostic in the shared envelope.
type Finding = report.Finding

// Report is the result of verifying one rule file.
type Report = report.Report

// maxAnalysisNodes bounds the co-match diagram; distinct rule tags defeat
// terminal sharing, so the cap guards against pathological tables.
const maxAnalysisNodes = 1 << 21

// Verify parses and symbolically checks a rule file against a spec.
// file names the source in diagnostics; src is the file content.
func Verify(sp *spec.Spec, file, src string) *Report {
	rep := &Report{Tool: Tool, File: file}
	parser := subscription.NewParser(sp)

	// Per-line parse with error recovery: every bad line is reported,
	// not just the first.
	var rules []*subscription.Rule
	ruleLine := make(map[int]int) // rule ID → 1-based line
	for i, line := range strings.Split(src, "\n") {
		lineRules, err := parser.ParseRuleLine(line, len(rules))
		if err != nil {
			kind, sev := KindParseError, SevError
			if errors.Is(err, subscription.ErrUnknownField) {
				kind = KindUnknownField
			}
			rep.Findings = append(rep.Findings, Finding{
				Tool: Tool, File: file, Line: i + 1, RuleID: -1, Kind: kind, Severity: sev,
				Message: err.Error(),
			})
			continue
		}
		for _, r := range lineRules {
			ruleLine[r.ID] = i + 1
		}
		rules = append(rules, lineRules...)
	}
	rep.Rules = len(rules)
	if len(rules) == 0 {
		sortFindings(rep.Findings)
		return rep
	}

	rep.Findings = append(rep.Findings, verifyTable(sp, file, rules, ruleLine)...)
	sortFindings(rep.Findings)
	return rep
}

// verifyTable runs the symbolic checks over successfully parsed rules.
func verifyTable(sp *spec.Spec, file string, rules []*subscription.Rule, ruleLine map[int]int) []Finding {
	var out []Finding
	finding := func(id int, kind Kind, sev Severity, related []int, format string, args ...interface{}) {
		out = append(out, Finding{
			Tool: Tool, File: file, Line: ruleLine[id], RuleID: id, Kind: kind, Severity: sev,
			Message: fmt.Sprintf(format, args...), RuleText: rules[id].String(),
			Related: related,
		})
	}

	// One co-match read (bdd.CoMatch) names the exact set of rules
	// matching each packet region of the merged diagram.
	var normalized []subscription.NormalizedRule
	analyzable := make(map[int]bool, len(rules))
	for _, r := range rules {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			finding(r.ID, KindParseError, SevError, nil, "cannot normalize filter: %v", err)
			continue
		}
		analyzable[r.ID] = true
		// A rule whose DNF is empty is already unsatisfiable; it reaches
		// no terminal and is reported with the others below.
		normalized = append(normalized, nrs...)
	}

	sets, err := bdd.CoMatch(sp, normalized, bdd.Options{MaxNodes: maxAnalysisNodes})
	if err != nil {
		sev := SevError
		kind := KindParseError
		if errors.Is(err, bdd.ErrTooLarge) {
			kind, sev = KindOverflow, SevWarning
		}
		return append(out, Finding{
			Tool: Tool, File: file, RuleID: -1, Kind: kind, Severity: sev,
			Message: fmt.Sprintf("symbolic analysis failed: %v", err),
		})
	}

	// One pass over the co-matching rule sets gathers everything the
	// three checks need.
	present := make(map[int]bool)
	shadowed := make(map[int]bool)
	covers := make(map[int]map[int]bool)     // rule → union of earlier rules co-resident at its terminals
	alwaysWith := make(map[int]map[int]bool) // rule → intersection of earlier rules across its terminals
	conflicts := make(map[[2]int]bool)       // ordered pair → seen
	for id := range analyzable {
		shadowed[id] = true // until a terminal proves sole reach
	}
	for _, ids := range sets {
		for _, id := range ids {
			present[id] = true
		}
		// Shadowing: rule id keeps its shadowed flag only if, at every
		// terminal it reaches, earlier rules are present whose merged
		// actions subsume its own — i.e. the rule contributes neither
		// reach nor forwarding behaviour there. alwaysWith narrows to
		// the earlier rules present at ALL of id's terminals: a
		// non-empty intersection is a single-rule implication witness.
		for _, id := range ids {
			earlier := earliestOthers(ids, id)
			if cur, seen := alwaysWith[id]; !seen {
				set := make(map[int]bool, len(earlier))
				for _, e := range earlier {
					set[e] = true
				}
				alwaysWith[id] = set
			} else {
				keep := make(map[int]bool, len(cur))
				for _, e := range earlier {
					if cur[e] {
						keep[e] = true
					}
				}
				alwaysWith[id] = keep
			}
			if len(earlier) == 0 {
				shadowed[id] = false
				continue
			}
			var merged subscription.ActionSet
			for _, e := range earlier {
				merged.Add(rules[e].Action)
			}
			if !merged.Covers(rules[id].Action) {
				shadowed[id] = false
				continue
			}
			if covers[id] == nil {
				covers[id] = make(map[int]bool)
			}
			for _, e := range earlier {
				covers[id][e] = true
			}
		}
		// Conflicts: check each co-resident pair's original actions.
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if conflicts[[2]int{a, b}] {
					continue
				}
				if reason := actionConflict(rules[a].Action, rules[b].Action); reason != "" {
					conflicts[[2]int{a, b}] = true
					finding(b, KindConflict, SevError, []int{a},
						"overlapping filters with contradictory actions: %s", reason)
				}
			}
		}
	}

	ids := make([]int, 0, len(analyzable))
	for id := range analyzable {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if !present[id] {
			finding(id, KindUnsatisfiable, SevError, nil, "filter can never match any packet")
			continue
		}
		if shadowed[id] && len(covers[id]) > 0 {
			// Prefer the sharper diagnosis: a single always-co-present
			// earlier rule with the identical action makes this rule
			// redundant — deletable with one specific rule to blame.
			var dup []int
			for e := range alwaysWith[id] {
				if rules[e].Action.Equal(rules[id].Action) {
					dup = append(dup, e)
				}
			}
			if len(dup) > 0 {
				sort.Ints(dup)
				finding(id, KindRedundant, SevWarning, dup,
					"redundant: an earlier rule with the identical action already matches every packet this filter matches; deleting this rule leaves the table unchanged")
				continue
			}
			cov := make([]int, 0, len(covers[id]))
			for c := range covers[id] {
				cov = append(cov, c)
			}
			sort.Ints(cov)
			finding(id, KindShadowed, SevWarning, cov,
				"fully shadowed: the union of earlier rules implies this filter and already performs its action")
		}
	}

	// The real compile pass (validity guards, table layout) reports
	// resource overflow on the table as written. Delegate the verdict
	// to fitcheck's per-stage placement model, compiling for a last-hop
	// switch: that placement realizes the stateful (aggregate) stages,
	// so it is the largest the rules demand anywhere in the network.
	if prog, err := compiler.Compile(sp, rules, compiler.Options{LastHop: true}); err == nil {
		l := fitcheck.Analyze(prog, fitcheck.Options{File: file, SkipHeadroom: true})
		for _, f := range l.Findings {
			out = append(out, Finding{
				Tool: Tool, File: file, RuleID: -1, Kind: KindResources, Severity: f.Severity,
				Message: fmt.Sprintf("compiled table exceeds the modeled switch resources: %s (%s)", f.Message, f.Kind),
			})
		}
	}
	return out
}

// earliestOthers returns the IDs in ids smaller than id.
func earliestOthers(ids []int, id int) []int {
	var out []int
	for _, o := range ids {
		if o < id {
			out = append(out, o)
		}
	}
	return out
}

// actionConflict reports why two actions on overlapping filters
// contradict, or "" when they merge cleanly. Forwarding actions merge
// into multicast (paper §V-D) unless exactly one side is an explicit
// drop; custom actions conflict when one name gets different
// arguments.
func actionConflict(a, b subscription.Action) string {
	if a.IsFwd() && b.IsFwd() {
		if (len(a.Ports) == 0) != (len(b.Ports) == 0) {
			return fmt.Sprintf("%s vs %s (drop overlaps forward)", a, b)
		}
		return ""
	}
	if !a.IsFwd() && !b.IsFwd() && a.Name == b.Name && !a.Equal(b) {
		return fmt.Sprintf("%s vs %s (same action, different arguments)", a, b)
	}
	return ""
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		return fs[i].Kind < fs[j].Kind
	})
}

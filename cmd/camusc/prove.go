package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"strings"

	"camus/internal/analysis/prove"
	"camus/internal/analysis/replay"
	"camus/internal/analysis/rulecheck"
	"camus/internal/compiler"
	"camus/internal/subscription"
)

// runProve implements `camusc prove`: compile the rule file, export the
// program into the prover's bdd-free IR, and certify it equivalent to
// the rules. Any divergence is reported with a concrete counterexample
// packet; stateless counterexamples are additionally serialized and
// replayed through pipeline.Switch, filling the envelope's packet hex
// and confirmed flag.
//
// Like the compiler (and unlike the control plane's per-switch
// reconciler), the CLI defaults to last-hop semantics so the stateful
// path of a rule file is certified; -last-hop=false proves the
// upstream (superset-forwarding) program instead.
func runProve(args []string, stdout, stderr interface{ Write([]byte) (int, error) }) int {
	fs := flag.NewFlagSet("camusc prove", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "message format specification file (required)")
	rulesPath := fs.String("rules", "", "subscription rules file (required)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	lastHop := fs.Bool("last-hop", true, "prove the last-hop (stateful) program")
	maxPaths := fs.Int("max-paths", 0, "symbolic path budget (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" || *rulesPath == "" {
		fmt.Fprintln(stderr, "usage: camusc prove -spec <file> -rules <file> [-json] [-last-hop=false]")
		return 2
	}
	sp, rulesSrc, err := readInputs(*specPath, *rulesPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc prove: %v\n", err)
		return 2
	}
	file := baseName(*rulesPath) + ".rules"

	// Per-line parse with error recovery, as in vet: bad lines become
	// findings, the surviving rules still get proved.
	parser := subscription.NewParser(sp)
	var rules []*subscription.Rule
	ruleLine := make(map[int]int)
	var parseFindings []rulecheck.Finding
	for i, line := range strings.Split(rulesSrc, "\n") {
		lineRules, err := parser.ParseRuleLine(line, len(rules))
		if err != nil {
			kind := rulecheck.KindParseError
			if errors.Is(err, subscription.ErrUnknownField) {
				kind = rulecheck.KindUnknownField
			}
			parseFindings = append(parseFindings, rulecheck.Finding{
				Tool: "camusc-prove", File: file, Line: i + 1, RuleID: -1,
				Kind: kind, Severity: rulecheck.SevError, Message: err.Error(),
			})
			continue
		}
		for _, r := range lineRules {
			ruleLine[r.ID] = i + 1
		}
		rules = append(rules, lineRules...)
	}

	opts := compiler.Options{LastHop: *lastHop}
	prog, err := compiler.Compile(sp, rules, opts)
	if err != nil {
		fmt.Fprintf(stderr, "camusc prove: compile: %v\n", err)
		return 2
	}
	ir, err := prog.ProveIR()
	if err != nil {
		fmt.Fprintf(stderr, "camusc prove: export IR: %v\n", err)
		return 2
	}
	popts := prove.Options{LastHop: *lastHop, MaxPaths: *maxPaths}
	res, err := prove.Check(ir, rules, popts)
	if err != nil {
		fmt.Fprintf(stderr, "camusc prove: %v\n", err)
		return 2
	}

	rep := res.Report(file, rules, ruleLine)
	// Report emits one envelope finding per prover finding, in order;
	// replay the stateless counterexamples through the real pipeline.
	for i, f := range res.Findings {
		if f.Cex == nil || !f.Cex.Stateless() {
			continue
		}
		out, err := replay.Confirm(sp, prog, rules, f.Cex, popts)
		if err != nil {
			fmt.Fprintf(stderr, "camusc prove: replay: %v\n", err)
			continue
		}
		rep.Findings[i].Counterexample.Packet = hex.EncodeToString(out.Wire)
		rep.Findings[i].Counterexample.Confirmed = out.Diverges()
	}
	rep.Findings = append(parseFindings, rep.Findings...)

	if *jsonOut {
		fmt.Fprintln(stdout, rep.JSON())
	} else {
		fmt.Fprint(stdout, rep.String())
		if len(rep.Findings) == 0 {
			status := "complete"
			if res.Overflowed {
				status = "PARTIAL (budget exhausted)"
			}
			fmt.Fprintf(stdout, "  proof %s: %d symbolic paths, program equivalent to rules\n", status, res.Paths)
		}
	}
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

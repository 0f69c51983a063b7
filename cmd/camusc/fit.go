package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"camus/internal/analysis/fitcheck"
	"camus/internal/analysis/report"
	"camus/internal/compiler"
)

// runFit implements `camusc fit`: the static pipeline-layout analyzer.
// The rules are compiled exactly as for `camusc compile` and the
// resulting program is packed into the modeled pipeline
// (internal/analysis/fitcheck); the per-dimension verdict comes back as
// report.Findings under the usual 0/1/2 exit contract, with a per-stage
// utilization table in the human-readable output.
//
// -last-hop defaults to true: the last-hop compilation carries the
// stateful (aggregate) stages, so it is the largest placement the rules
// can demand anywhere in the network — the conservative fit question.
func runFit(args []string, stdout, stderr interface{ Write([]byte) (int, error) }) int {
	fs := flag.NewFlagSet("camusc fit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "message format specification file (required)")
	rulesPath := fs.String("rules", "", "subscription rules file (required)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON (layout + findings)")
	lastHop := fs.Bool("last-hop", true, "compile for a last-hop switch (largest placement; aggregates realized)")
	stages := fs.Int("stages", 0, "override the per-pass stage count (0 = modeled default)")
	recirc := fs.Int("recirc", -1, "override the recirculation-pass budget (-1 = modeled default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" || *rulesPath == "" {
		fmt.Fprintln(stderr, "usage: camusc fit -spec <file> -rules <file> [-json] [-last-hop=false] [-stages n] [-recirc n]")
		return 2
	}
	sp, rules, err := parseInputs(*specPath, *rulesPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc fit: %v\n", err)
		return 2
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{LastHop: *lastHop})
	if err != nil {
		fmt.Fprintf(stderr, "camusc fit: compile: %v\n", err)
		return 2
	}
	file := baseName(*rulesPath) + ".rules"

	budget := fitcheck.DefaultBudget()
	if *stages > 0 {
		budget.Stages = *stages
	}
	if *recirc >= 0 {
		budget.RecircPasses = *recirc
	}
	l := fitcheck.Analyze(prog, fitcheck.Options{Budget: budget, File: file})

	if *jsonOut {
		rep := struct {
			Tool     string           `json:"tool"`
			File     string           `json:"file"`
			Rules    int              `json:"rules"`
			Findings []report.Finding `json:"findings"`
			Layout   *fitcheck.Layout `json:"layout"`
		}{fitcheck.Tool, file, len(rules), l.Findings, l}
		if rep.Findings == nil {
			rep.Findings = []report.Finding{}
		}
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "camusc fit: encode report: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		rep := report.Report{Tool: fitcheck.Tool, File: file, Rules: len(rules), Findings: l.Findings}
		fmt.Fprint(stdout, rep.String())
		fmt.Fprintf(stdout, "  placement: %d tables in %d stage slots, %d pass(es)\n",
			len(l.Tables), len(l.Stages), l.Passes)
		for i, s := range l.Stages {
			fmt.Fprintf(stdout, "  stage %2d (pass %d): sram %6.2f%%  tcam %6.2f%%  %v\n",
				i%budget.Stages, s.Pass, s.SRAMPct, s.TCAMPct, s.Tables)
		}
		for _, tf := range l.Tables {
			fmt.Fprintf(stdout, "  table %-20s %-10s entries=%-6d headroom=%d\n",
				tf.Name, tf.Kind, tf.Cost.Entries, tf.Headroom)
		}
		if len(l.Findings) == 0 {
			fmt.Fprintf(stdout, "  fit certificate: placement fits %d stages × %d pass(es); min headroom %d entries; peak stage sram %.2f%%\n",
				budget.Stages, l.Passes, l.MinHeadroom(), l.MaxStageSRAMPct())
		}
	}
	if len(l.Findings) > 0 {
		return 1
	}
	return 0
}

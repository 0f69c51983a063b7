// Command camusc is the Camus subscription compiler CLI: it takes an
// application message-format spec (the paper's Fig. 4 DSL) and a rule
// file, and emits the compiled pipeline tables (Fig. 6), the multicast
// groups, the fitcheck resource summary, and optionally the BDD in
// Graphviz form.
//
// Usage:
//
//	camusc -spec itch.spec -rules feeds.rules [-dot out.dot] [-last-hop]
//	camusc vet -spec itch.spec -rules feeds.rules [-json]
//	camusc prove -spec itch.spec -rules feeds.rules [-json] [-last-hop=false]
//	camusc netcheck -spec itch.spec -rules feeds.rules [-json] [-topo fattree|mstpp]
//	camusc fit -spec itch.spec -rules feeds.rules [-json] [-last-hop=false]
//
// The vet subcommand runs the rule-program verifier instead of the
// compiler: it reports unsatisfiable filters, fully shadowed rules,
// contradictory actions on overlapping filters, and references to
// fields absent from the message spec.
//
// The prove subcommand is the translation validator: it compiles the
// rules and then certifies — with a second implementation that shares
// nothing with the BDD compilation path — that the emitted tables
// forward exactly the packets the rules subscribe to. Divergences are
// reported with concrete counterexample packets replayed through the
// dataplane.
//
// The netcheck subcommand is the network-wide verifier: the rule
// filters become host subscriptions over a deployed topology and every
// packet class is symbolically propagated from every ingress, proving
// the delivery-set invariants (no black holes, no loops, exact
// delivery) end-to-end. See internal/analysis/netcheck.
//
// The fit subcommand is the static pipeline-layout analyzer: it packs
// the compiled tables into the modeled match-action pipeline under
// per-stage SRAM/TCAM/key-width budgets (with recirculation passes
// when one pipe is not enough) and reports the per-dimension fit
// verdict, the per-stage utilization, and each table's remaining entry
// headroom. See internal/analysis/fitcheck.
//
// All subcommands share one exit-code contract (see
// internal/analysis/report): 0 clean, 1 when any finding is reported,
// 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"camus/internal/analysis/fitcheck"
	"camus/internal/analysis/rulecheck"
	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "prove" {
		os.Exit(runProve(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "netcheck" {
		os.Exit(runNetcheck(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "fit" {
		os.Exit(runFit(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runCompile(os.Args[1:], os.Stdout, os.Stderr))
}

// runCompile implements the default `camusc` command: compile the rules
// and print the tables and the fitcheck resource summary, with a warning
// when the program does not fit the modeled switch.
func runCompile(args []string, stdout, stderr interface{ Write([]byte) (int, error) }) int {
	fs := flag.NewFlagSet("camusc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "message format specification file (required)")
	rulesPath := fs.String("rules", "", "subscription rules file (required)")
	dotPath := fs.String("dot", "", "write the rule BDD in Graphviz format")
	lastHop := fs.Bool("last-hop", false, "compile as a last-hop switch (stateful predicates active)")
	noPrune := fs.Bool("no-prune", false, "disable domain-specific BDD pruning (ablation)")
	quiet := fs.Bool("q", false, "print only the resource summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" || *rulesPath == "" {
		fs.Usage()
		return 2
	}
	sp, rules, err := parseInputs(*specPath, *rulesPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc: %v\n", err)
		return 1
	}
	opts := compiler.Options{
		LastHop: *lastHop,
		BDD:     bdd.Options{DisablePruning: *noPrune},
	}
	prog, err := compiler.Compile(sp, rules, opts)
	if err != nil {
		fmt.Fprintf(stderr, "camusc: compile: %v\n", err)
		return 1
	}
	if !*quiet {
		fmt.Fprintln(stdout, prog)
	}
	layout := fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true})
	fmt.Fprintf(stdout, "rules: %d, %s\n", len(rules), layout)
	if !layout.Fits() {
		fmt.Fprintln(stderr, "warning: program exceeds the modeled switch resources")
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(prog.BDD.Dot()), 0o644); err != nil {
			fmt.Fprintf(stderr, "camusc: write dot: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "BDD written to %s\n", *dotPath)
	}
	return 0
}

// readInputs reads the -spec and -rules files every subcommand takes:
// the parsed spec and the rules source.
func readInputs(specPath, rulesPath string) (*spec.Spec, string, error) {
	specSrc, err := os.ReadFile(specPath)
	if err != nil {
		return nil, "", err
	}
	sp, err := spec.Parse(baseName(specPath), string(specSrc))
	if err != nil {
		return nil, "", fmt.Errorf("parse spec: %w", err)
	}
	rulesSrc, err := os.ReadFile(rulesPath)
	return sp, string(rulesSrc), err
}

// parseInputs is readInputs with the rules parsed strictly.
func parseInputs(specPath, rulesPath string) (*spec.Spec, []*subscription.Rule, error) {
	sp, src, err := readInputs(specPath, rulesPath)
	if err != nil {
		return nil, nil, err
	}
	rules, err := subscription.NewParser(sp).ParseRules(src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse rules: %w", err)
	}
	return sp, rules, nil
}

// runVet implements `camusc vet`. It is factored over explicit writers
// and an exit code so tests can drive it without spawning a process.
func runVet(args []string, stdout, stderr interface{ Write([]byte) (int, error) }) int {
	fs := flag.NewFlagSet("camusc vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "message format specification file (required)")
	rulesPath := fs.String("rules", "", "subscription rules file (required)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" || *rulesPath == "" {
		fmt.Fprintln(stderr, "usage: camusc vet -spec <file> -rules <file> [-json]")
		return 2
	}
	sp, rulesSrc, err := readInputs(*specPath, *rulesPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc vet: %v\n", err)
		return 2
	}
	rep := rulecheck.Verify(sp, baseName(*rulesPath)+".rules", rulesSrc)
	if *jsonOut {
		fmt.Fprintln(stdout, rep.JSON())
	} else {
		fmt.Fprint(stdout, rep.String())
	}
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

func check(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "camusc: %s: %v\n", what, err)
		os.Exit(1)
	}
}

func baseName(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			base = path[i+1:]
			break
		}
	}
	for i := 0; i < len(base); i++ {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}

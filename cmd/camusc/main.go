// Command camusc is the Camus subscription compiler CLI: it takes an
// application message-format spec (the paper's Fig. 4 DSL) and a rule
// file, and emits the compiled pipeline tables (Fig. 6), the multicast
// groups, the resource estimate, and optionally the BDD in Graphviz
// form.
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
	runCompile()
}

func runCompile() {
	specPath := flag.String("spec", "", "message format specification file (required)")
	rulesPath := flag.String("rules", "", "subscription rules file (required)")
	dotPath := flag.String("dot", "", "write the rule BDD in Graphviz format")
	lastHop := flag.Bool("last-hop", false, "compile as a last-hop switch (stateful predicates active)")
	noPrune := flag.Bool("no-prune", false, "disable domain-specific BDD pruning (ablation)")
	quiet := flag.Bool("q", false, "print only the resource summary")
	flag.Parse()

	if *specPath == "" || *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	specSrc, err := os.ReadFile(*specPath)
	check("read spec", err)
	sp, err := spec.Parse(baseName(*specPath), string(specSrc))
	check("parse spec", err)

	rulesSrc, err := os.ReadFile(*rulesPath)
	check("read rules", err)
	rules, err := subscription.NewParser(sp).ParseRules(string(rulesSrc))
	check("parse rules", err)

	opts := compiler.Options{
		LastHop: *lastHop,
		BDD:     bdd.Options{DisablePruning: *noPrune},
	}
	prog, err := compiler.Compile(sp, rules, opts)
	check("compile", err)

	if !*quiet {
		fmt.Print(prog)
		fmt.Println()
	}
	fmt.Printf("rules: %d, %s\n", len(rules), prog.Resources)
	if !prog.Resources.Fits() {
		fmt.Fprintln(os.Stderr, "warning: program exceeds the modeled switch resources")
	}
	if *dotPath != "" {
		check("write dot", os.WriteFile(*dotPath, []byte(prog.BDD.Dot()), 0o644))
		fmt.Printf("BDD written to %s\n", *dotPath)
	}
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
	specSrc, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc vet: %v\n", err)
		return 2
	}
	sp, err := spec.Parse(baseName(*specPath), string(specSrc))
	if err != nil {
		fmt.Fprintf(stderr, "camusc vet: parse spec: %v\n", err)
		return 2
	}
	rulesSrc, err := os.ReadFile(*rulesPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc vet: %v\n", err)
		return 2
	}
	rep := rulecheck.Verify(sp, baseName(*rulesPath)+".rules", string(rulesSrc))
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

// Command camus-lint runs the repo's custom static analyzers (see
// internal/analysis) over Go packages, test files included. It is the
// standalone front-end for the Camus-specific check (analysis.All), the
// invariant no Go declaration can carry:
//
//	camus-locksend  locks held across channel sends or a dataplane batch
//
// Usage:
//
//	camus-lint [-json] [packages...]
//
// Packages default to ./... and use go-list syntax. With -json the
// diagnostics are emitted in the shared analysis report envelope
// (internal/analysis/report), the same schema camusc vet and camusc
// prove produce. Exit codes follow the shared contract: 0 clean, 1
// when any diagnostic is reported, 2 on load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"camus/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(analysis.LoadConfig{Tests: true}, analysis.All(), patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camus-lint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		rep := analysis.ToReport(strings.Join(patterns, " "), diags)
		fmt.Println(rep.JSON())
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		fmt.Printf("camus-lint: %d findings\n", len(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

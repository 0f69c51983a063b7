// Command camus-lint runs the repo's custom static analyzers (see
// internal/analysis) over Go packages. It is the standalone front-end
// for the five Camus-specific checks (analysis.All):
//
//	camus-snapshot  mutation of StatsSnapshot / Config snapshot values
//	camus-options   direct construction of pipeline.Switch outside the
//	                functional-options API
//	camus-atomic    mixed atomic and plain access to the same field
//	camus-locksend  locks held across channel sends or a dataplane batch
//	camus-fitgate   freshly compiled programs reaching Install without a
//	                fit-admission check in ctlplane paths
//
// Usage:
//
//	camus-lint [-json] [-no-tests] [packages...]
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
	noTests := flag.Bool("no-tests", false, "skip _test.go files and test variants")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(analysis.LoadConfig{Tests: !*noTests}, analysis.All(), patterns...)
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

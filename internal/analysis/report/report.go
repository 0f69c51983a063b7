// Package report defines the diagnostic envelope shared by every Camus
// analysis tool: camus-lint (Go static analyzers), camusc vet (the
// rule-table verifier) and camusc prove (the translation-validation
// prover). One Finding schema means one consumer-side parser for CI
// annotations, regardless of which tool produced the diagnostic.
//
// Exit-code contract (all three tools):
//
//	0 — analysis ran, no findings
//	1 — analysis ran, at least one finding (any severity)
//	2 — the tool could not run: usage error, unreadable input,
//	    or a failed package load
//
// Machine consumers should parse the JSON report on exit codes 0 and 1
// and treat exit 2 as infrastructure failure.
package report

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind classifies a finding within its tool's vocabulary (for example
// "unsatisfiable" from camusc vet, "missing-action" from camusc prove,
// or an analyzer name from camus-lint).
type Kind string

// Severity grades a finding.
type Severity string

const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
)

// Counterexample is a concrete witness packet attached to a prover
// finding: a full field assignment plus, for stateless filters, the
// serialized wire bytes that replay the divergence on pipeline.Switch.
type Counterexample struct {
	// Headers are the present headers, in spec order.
	Headers []string `json:"headers,omitempty"`
	// Fields maps qualified field names to value literals.
	Fields map[string]string `json:"fields,omitempty"`
	// State maps aggregate keys to register values (stateful filters).
	State map[string]int64 `json:"state,omitempty"`
	// Packet is the hex-encoded wire serialization (internal/packet) of
	// the witness; empty when the divergence needs aggregate state.
	Packet string `json:"packet,omitempty"`
	// Want is the action set demanded by the independent AST semantics;
	// Got is what the compiled program produces.
	Want string `json:"want,omitempty"`
	Got  string `json:"got,omitempty"`
	// Confirmed reports that the witness was replayed end-to-end through
	// pipeline.Switch and reproduced the divergence.
	Confirmed bool `json:"confirmed,omitempty"`
}

// Finding is one diagnostic, serializable as JSON.
type Finding struct {
	// Tool names the producer: "camus-lint", "camusc-vet", "camusc-prove".
	Tool string `json:"tool,omitempty"`
	File string `json:"file"`
	Line int    `json:"line,omitempty"`
	// RuleID is the subscription rule the finding is about, or -1 for
	// table-level and Go-source findings.
	RuleID   int      `json:"rule"`
	Kind     Kind     `json:"kind"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	// RuleText is the offending rule, pretty-printed.
	RuleText string `json:"rule_text,omitempty"`
	// Related lists the other rule IDs involved (the shadowing cover,
	// the conflicting partner, the rules justifying a leaf action).
	Related []int `json:"related,omitempty"`
	// Counterexample is the prover's concrete witness, if any.
	Counterexample *Counterexample `json:"counterexample,omitempty"`
}

func (f Finding) String() string {
	loc := f.File
	if f.Line > 0 {
		loc = fmt.Sprintf("%s:%d", f.File, f.Line)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s: %s", loc, f.Severity, f.Message)
	if len(f.Related) > 0 {
		ids := make([]string, len(f.Related))
		for i, id := range f.Related {
			ids[i] = "#" + strconv.Itoa(id)
		}
		fmt.Fprintf(&b, " (see rule %s)", strings.Join(ids, ", "))
	}
	if cex := f.Counterexample; cex != nil {
		fmt.Fprintf(&b, "\n    counterexample: %s", cex)
	}
	return b.String()
}

func (c *Counterexample) String() string {
	var b strings.Builder
	if len(c.Headers) > 0 {
		fmt.Fprintf(&b, "headers=%v ", c.Headers)
	}
	if len(c.Fields) > 0 {
		keys := make([]string, 0, len(c.Fields))
		for k := range c.Fields {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteString("{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%s", k, c.Fields[k])
		}
		b.WriteString("} ")
	}
	if len(c.State) > 0 {
		keys := make([]string, 0, len(c.State))
		for k := range c.State {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteString("state{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%d", k, c.State[k])
		}
		b.WriteString("} ")
	}
	fmt.Fprintf(&b, "want %s, got %s", c.Want, c.Got)
	if c.Confirmed {
		b.WriteString(" (confirmed on pipeline.Switch)")
	}
	return b.String()
}

// Report is the result of one tool run over one target (a rule file
// for camusc vet/prove, the package pattern for camus-lint).
type Report struct {
	Tool string `json:"tool,omitempty"`
	File string `json:"file"`
	// Rules counts the parsed subscription rules (0 for camus-lint).
	Rules    int       `json:"rules"`
	Findings []Finding `json:"findings"`
}

// HasErrors reports whether any finding is error-severity.
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// JSON renders the report as indented JSON (findings is never null).
func (r *Report) JSON() string {
	cp := *r
	if cp.Findings == nil {
		cp.Findings = []Finding{}
	}
	out, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"file":%q,"error":%q}`, r.File, err)
	}
	return string(out)
}

// String renders the human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rules, %d findings\n", r.File, r.Rules, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

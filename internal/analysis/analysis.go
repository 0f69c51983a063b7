// Package analysis is a self-contained static-analysis framework for
// the Camus repository: a minimal reimplementation of the
// golang.org/x/tools/go/analysis runner pattern on top of the standard
// library only (go/parser + go/types + `go list -export`), so the lint
// suite builds without any external module dependency.
//
// The framework loads packages with full type information (export data
// comes from the toolchain's build cache via `go list -export`), runs a
// set of Analyzers over each package's syntax, and collects position-
// tagged Diagnostics. The Camus-specific analyzers live in this package
// too; see All.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check: a name, a short description, and a run
// function executed once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (kebab-case).
	Name string
	// Doc is a one-line description shown by camus-lint -help.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package's syntax and types to an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypesInfo returns the package's type-checker results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Column, d.Message, d.Analyzer)
}

// basePkgPath strips the " [foo.test]" variant suffix go list attaches
// to test-augmented packages.
func basePkgPath(ip string) string {
	if i := strings.Index(ip, " ["); i >= 0 {
		return ip[:i]
	}
	return ip
}

// Run loads the packages matching patterns and applies every analyzer
// to each, returning the diagnostics sorted by position. Packages that
// fail to type-check contribute their type errors as loader diagnostics
// so broken code surfaces instead of being silently skipped.
func Run(cfg LoadConfig, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(cfg, patterns...)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	// A file is type-checked twice when tests are loaded (once in the
	// plain package, once in the test variant); identical findings are
	// deduplicated.
	seen := make(map[Diagnostic]bool)
	report := func(d Diagnostic) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pkg := range pkgs {
		if pkg.IllTyped {
			for _, e := range pkg.Errs {
				report(Diagnostic{
					File:     pkg.ImportPath,
					Analyzer: "loader",
					Message:  e.Error(),
				})
			}
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				d.File = d.Pos.Filename
				d.Line = d.Pos.Line
				d.Column = d.Pos.Column
				d.Pos = token.Position{} // comparable key: file/line/col only
				report(d)
			}
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the Camus analyzer suite: the one check no Go type can
// express (DESIGN.md §8a).
func All() []*Analyzer {
	return []*Analyzer{LockSendAnalyzer}
}

// --- shared type helpers -------------------------------------------------

// namedType reports whether t (after unwrapping pointers and aliases)
// is the named type pkgPath.name, e.g. ("camus/internal/pipeline", "Switch").
func namedType(t types.Type, pkgPath, name string) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

package analysis

import (
	"go/ast"
	"go/types"
)

// ctlplanePath is the control-plane package whose construction surface
// the suite protects alongside the dataplane's.
const ctlplanePath = "camus/internal/ctlplane"

// serverPath is the daemon package behind camus.NewDaemon; a Daemon
// built by composite literal skips log replay and handler wiring.
const serverPath = "camus/internal/ctlplane/server"

// OptionsOnlyAnalyzer enforces the functional-options construction
// surface of the dataplane and the control plane: outside
// internal/pipeline, a Switch must be built with NewSwitch(id, static,
// prog, opts...) and never by composite literal, field mutation, or
// hand-rolled Config literals; outside internal/ctlplane, a Service
// must be built with ctlplane.New(net, spec, opts...) and a Reconciler
// with NewReconcilerWith — never via ctlplane.Config literals. The
// frozen-Config invariant is what makes both layers safe to drive from
// many goroutines; any other construction path can smuggle in mutable
// state.
var OptionsOnlyAnalyzer = &Analyzer{
	Name: "camus-options",
	Doc:  "flag direct construction/mutation of pipeline or ctlplane configuration outside their owning packages",
	Run:  runOptionsOnly,
}

func runOptionsOnly(pass *Pass) {
	// Exemptions are per-owning-package: pipeline may build its own
	// Switch/Config, ctlplane may use its own Config (the Option
	// target), and neither exemption leaks to the other layer's checks.
	inPipeline := pass.PkgPath() == pipelinePath
	inCtlplane := pass.PkgPath() == ctlplanePath
	inServer := pass.PkgPath() == serverPath
	info := pass.TypesInfo()
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CompositeLit:
				t := info.TypeOf(e)
				if t == nil {
					return true
				}
				if !inPipeline {
					if namedType(t, pipelinePath, "Switch") {
						pass.Reportf(e.Pos(),
							"composite literal of pipeline.Switch bypasses NewSwitch; construct switches with functional options")
					}
					if namedType(t, pipelinePath, "Config") {
						pass.Reportf(e.Pos(),
							"composite literal of pipeline.Config bypasses DefaultConfig; use SwitchOption functional options")
					}
				}
				if !inCtlplane && namedType(t, ctlplanePath, "Config") {
					pass.Reportf(e.Pos(),
						"composite literal of ctlplane.Config bypasses the functional options; construct services with ctlplane.New(net, spec, opts...)")
				}
				// The camus facade aliases these types (ControlPlane =
				// ctlplane.Service, Daemon = server.Daemon), so literal
				// construction through the facade resolves to the same
				// named types and is caught here too.
				if !inCtlplane && namedType(t, ctlplanePath, "Service") {
					pass.Reportf(e.Pos(),
						"composite literal of the control-plane Service bypasses its apply workers and frozen Config; construct with camus.NewControlPlane (or ctlplane.New)")
				}
				if !inServer && namedType(t, serverPath, "Daemon") {
					pass.Reportf(e.Pos(),
						"composite literal of the control-plane Daemon bypasses log replay and handler wiring; construct with camus.NewDaemon (or server.New)")
				}
			case *ast.AssignStmt:
				if !inPipeline {
					for _, lhs := range e.Lhs {
						checkSwitchFieldWrite(pass, info, lhs)
					}
				}
			case *ast.IncDecStmt:
				if !inPipeline {
					checkSwitchFieldWrite(pass, info, e.X)
				}
			}
			return true
		})
	}
}

// checkSwitchFieldWrite reports assignments to fields of a
// pipeline.Switch (its internals are owned by the pipeline package).
func checkSwitchFieldWrite(pass *Pass, info *types.Info, lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if selectionField(info, sel) == nil {
		return
	}
	base := info.TypeOf(sel.X)
	if base == nil || !namedType(base, pipelinePath, "Switch") {
		return
	}
	pass.Reportf(lhs.Pos(),
		"mutation of pipeline.Switch field %s outside internal/pipeline; switch internals are frozen after NewSwitch",
		sel.Sel.Name)
}

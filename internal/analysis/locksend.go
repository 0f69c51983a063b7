package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// LockSendAnalyzer flags blocking fan-out while holding a mutex:
// channel sends and calls to the dataplane's batch entry points
// (Switch.ProcessBatch, Switch.ProcessBatchInto, and the simulator's
// Sim.PublishBatch and Sim.PublishBatchInto, which make one such call
// per switch per wave)
// executed between a sync.Mutex/RWMutex Lock (or RLock) and its Unlock.
// Both can block for an unbounded time — a send until a receiver
// arrives, a batch until the switch lock comes free and its packets have
// run — so holding a lock across them turns a local critical section
// into a system-wide convoy (and, with the wrong receiver, a deadlock).
// The switch lock stays correct precisely because it never wraps a
// blocking operation; this analyzer pins that invariant.
//
// The analysis is an intra-procedural, syntactic approximation: it
// scans each function body in statement order, tracking Lock/Unlock
// pairs on the same rendered receiver expression. A deferred Unlock
// keeps the lock held until function end. Locks taken inside a branch
// are tracked within that branch only.
var LockSendAnalyzer = &Analyzer{
	Name: "camus-locksend",
	Doc:  "flag channel sends or dataplane batch fan-out while holding a mutex",
	Run:  runLockSend,
}

func runLockSend(pass *Pass) {
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					scanLockRegions(pass, fn.Body, map[string]bool{})
				}
			case *ast.FuncLit:
				// Function literals get a fresh state: a goroutine body
				// does not inherit the spawner's locks. (Immediately
				// invoked literals are approximated the same way.) The
				// statement scanner never descends into literals, so this
				// is the only scan of the body; returning true lets
				// Inspect reach literals nested deeper still.
				scanLockRegions(pass, fn.Body, map[string]bool{})
			}
			return true
		})
	}
}

// scanLockRegions walks stmts in order, maintaining the set of held
// lock keys, and reports blocking operations while the set is
// non-empty. Branch bodies are scanned with a copy of the held set so a
// lock taken inside one arm does not leak into the fallthrough path.
func scanLockRegions(pass *Pass, body *ast.BlockStmt, held map[string]bool) {
	for _, stmt := range body.List {
		scanStmt(pass, stmt, held)
	}
}

func scanStmt(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, locked, ok := lockOp(pass, s.X); ok {
			if locked {
				held[key] = true
			} else {
				delete(held, key)
			}
			return
		}
		checkBlockingExpr(pass, s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the lock stays held for
		// the rest of the scan. A deferred Lock would be bizarre; ignore.
		if _, _, ok := lockOp(pass, s.Call); !ok {
			checkBlockingExpr(pass, s.Call, held)
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			pass.Reportf(s.Arrow, "channel send while holding %s", heldList(held))
		}
		checkBlockingExpr(pass, s.Chan, held)
		checkBlockingExpr(pass, s.Value, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkBlockingExpr(pass, rhs, held)
		}
		for _, lhs := range s.Lhs {
			checkBlockingExpr(pass, lhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkBlockingExpr(pass, r, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		checkBlockingExpr(pass, s.Cond, held)
		scanLockRegions(pass, s.Body, copyHeld(held))
		if s.Else != nil {
			scanStmt(pass, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		scanLockRegions(pass, s.Body, copyHeld(held))
	case *ast.RangeStmt:
		checkBlockingExpr(pass, s.X, held)
		scanLockRegions(pass, s.Body, copyHeld(held))
	case *ast.BlockStmt:
		scanLockRegions(pass, s, held)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sub := copyHeld(held)
				for _, st := range cc.Body {
					scanStmt(pass, st, sub)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sub := copyHeld(held)
				for _, st := range cc.Body {
					scanStmt(pass, st, sub)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sub := copyHeld(held)
				if cc.Comm != nil {
					scanStmt(pass, cc.Comm, sub)
				}
				for _, st := range cc.Body {
					scanStmt(pass, st, sub)
				}
			}
		}
	case *ast.GoStmt:
		// The goroutine runs without the spawner's locks; its FuncLit
		// body is scanned independently by runLockSend.
	case *ast.LabeledStmt:
		scanStmt(pass, s.Stmt, held)
	}
}

// lockOp recognizes <expr>.Lock/RLock/Unlock/RUnlock() on a sync
// mutex and returns the rendered receiver as the lock key.
func lockOp(pass *Pass, e ast.Expr) (key string, locked, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	var isLock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
		isLock = false
	default:
		return "", false, false
	}
	s, found := pass.TypesInfo().Selections[sel]
	if !found {
		return "", false, false
	}
	if !namedType(s.Recv(), "sync", "Mutex") && !namedType(s.Recv(), "sync", "RWMutex") {
		return "", false, false
	}
	return exprString(sel.X), isLock, true
}

// pipelinePath is the dataplane package whose batch entry points are
// fan-out barriers.
const pipelinePath = "camus/internal/pipeline"

// fanOutMethods are the dataplane's batch entry points (the fan-out
// barriers), by receiver type.
var fanOutMethods = map[string]struct{ pkg, recv string }{
	"ProcessBatch":     {pipelinePath, "Switch"},
	"ProcessBatchInto": {pipelinePath, "Switch"},
	"PublishBatch":     {"camus/internal/netsim", "Sim"},
	"PublishBatchInto": {"camus/internal/netsim", "Sim"},
}

// checkBlockingExpr reports fan-out calls nested anywhere in an
// expression while locks are held.
func checkBlockingExpr(pass *Pass, e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // not executed here
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		m, isFanOut := fanOutMethods[sel.Sel.Name]
		if !isFanOut {
			return true
		}
		if recv, found := pass.TypesInfo().Selections[sel]; found &&
			namedType(recv.Recv(), m.pkg, m.recv) {
			pass.Reportf(call.Pos(), "%s fan-out while holding %s", sel.Sel.Name, heldList(held))
		}
		return true
	})
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// heldList renders the held lock set deterministically.
func heldList(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

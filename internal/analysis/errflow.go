package analysis

import (
	"go/ast"
	"go/types"
)

// ErrFlow forbids silently dropping a durability-critical error
// (DESIGN.md §14): the error result of Sync/Close/Snapshot/Flush/Msync on
// an internal/mem type — or of any module function that may return one of
// those errors, per the summaries — must be propagated or checked. A
// dropped msync error means the caller believes data is durable when the
// kernel just told it otherwise; that is exactly the silent-corruption
// window the crash-torture suite exists to catch at runtime, closed here at
// compile time instead.
//
// Four drop shapes are flagged:
//
//   - a bare expression-statement call (`f.Close()`)
//   - the error result assigned to the blank identifier (`_ = s.Sync()`,
//     `n, _ := w.Flush()`)
//   - `defer` of a durable call (the deferred error has no receiver)
//   - `go` of a durable call
//
// Assigning the error to a named variable counts as checked — flow-tracking
// unused error variables is `go vet`'s job, not this analyzer's. Provably
// benign drops carry //thynvm:allow-errdrop <reason>.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: "flag dropped errors from durability-critical Sync/Close/Flush calls " +
		"(escape hatch: //thynvm:allow-errdrop <reason>)",
	Run: runErrFlow,
}

func runErrFlow(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if desc, ok := durableCall(pass, call); ok {
						reportDrop(pass, file, call, desc, "discarded")
					}
				}
			case *ast.DeferStmt:
				// Still descend: a deferred closure body can hide its own
				// bare drops, caught by the ExprStmt case.
				if desc, ok := durableCall(pass, n.Call); ok {
					reportDrop(pass, file, n.Call, desc, "dropped by defer")
				}
			case *ast.GoStmt:
				if desc, ok := durableCall(pass, n.Call); ok {
					reportDrop(pass, file, n.Call, desc, "dropped by go statement")
				}
			case *ast.AssignStmt:
				checkAssignDrop(pass, file, n)
			}
			return true
		})
	}
	return nil
}

// durableCall classifies call as durability-critical: a direct primitive
// (durablePrimitive) or a module function whose summary says it may return
// a durable error.
func durableCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if desc, ok := durablePrimitive(pass.TypesInfo, pass.Pkg.Path(), call); ok {
		return desc, true
	}
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !InModule(fn.Pkg().Path()) {
		return "", false
	}
	if cs := pass.Summaries.Lookup(FuncKey(fn)); cs != nil && cs.ReturnsDurableErr {
		return shortKey(FuncKey(fn)), true
	}
	return "", false
}

// checkAssignDrop flags durable calls whose error-position result lands in
// the blank identifier. Two shapes: a multi-value call spread over the LHS
// (`n, _ := w.Flush()`), and 1:1 assignments (`_ = s.Sync()`).
func checkAssignDrop(pass *Pass, file *ast.File, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		desc, ok := durableCall(pass, call)
		if !ok {
			return
		}
		// The durable error is the call's last result by construction.
		if isBlank(as.Lhs[len(as.Lhs)-1]) {
			reportDrop(pass, file, call, desc, "assigned to _")
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBlank(as.Lhs[i]) {
			continue
		}
		// Only a single-result error call can be dropped 1:1 into _.
		if tup, ok := pass.TypesInfo.TypeOf(call).(*types.Tuple); ok && tup.Len() > 1 {
			continue
		}
		if desc, ok := durableCall(pass, call); ok {
			reportDrop(pass, file, call, desc, "assigned to _")
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func reportDrop(pass *Pass, file *ast.File, call *ast.CallExpr, desc, how string) {
	if pass.Allowed(file, call.Pos(), "allow-errdrop") {
		return
	}
	pass.Reportf(call.Pos(),
		"durability-critical error from %s %s; propagate, check, or annotate //thynvm:allow-errdrop <reason>",
		desc, how)
}

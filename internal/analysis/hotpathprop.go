package analysis

import (
	"go/ast"
)

// HotPathProp extends the hotalloc guarantee interprocedurally (DESIGN.md
// §14): a //thynvm:hotpath function must not reach a heap allocation
// through any chain of module-internal calls, however deep. HotAlloc
// checks the annotated body itself; HotPathProp consults the per-function
// summaries and flags every call whose callee may allocate transitively,
// reporting the full call chain down to the allocating construct.
//
// Callees that are themselves //thynvm:hotpath-annotated are skipped here —
// each annotated function is checked in its own right, so flagging the call
// would duplicate the finding at the callee. Allocations sanctioned by
// //thynvm:allow-alloc inside a callee never enter its summary, so
// sanctioned amortized slow paths do not propagate; each such directive a
// hotpath call reaches is credited to the directive audit, which would
// otherwise call it stale. A call site itself may also be annotated
// //thynvm:allow-alloc to accept a callee's allocation.
var HotPathProp = &Analyzer{
	Name: "hotpathprop",
	Doc: "flag calls from //thynvm:hotpath functions to transitively-allocating " +
		"module functions (escape hatch: //thynvm:allow-alloc <reason>)",
	Run: runHotPathProp,
}

func runHotPathProp(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !HotPath(fn) {
				continue
			}
			checkHotPathCalls(pass, file, fn)
		}
	}
	return nil
}

func checkHotPathCalls(pass *Pass, file *ast.File, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := funcObj(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil || !InModule(callee.Pkg().Path()) {
			return true // dynamic, builtin or extra-module call; no summary
		}
		key := FuncKey(callee)
		cs := pass.Summaries.Lookup(key)
		if cs == nil || cs.HotPath {
			return true
		}
		if !cs.Allocates {
			pass.Summaries.creditAllowedAllocs(key, pass.Audit)
			return true
		}
		if pass.Allowed(file, call.Pos(), "allow-alloc") {
			return true
		}
		pass.Reportf(call.Pos(),
			"hotpath function %s calls %s, which may allocate: %s; "+
				"restructure or annotate //thynvm:allow-alloc <reason>",
			fn.Name.Name, shortKey(key), pass.Summaries.AllocChain(key))
		return true
	})
}

package analysis

import (
	"go/ast"
)

// PersistGuard enforces the generation-safety ordering invariant from PR 9
// (DESIGN.md §13–§14): a write that destroys an older checkpoint
// generation's durable image — journal in-place apply, shadow-slot reuse,
// ping-pong recycle, recovery consolidation — may only execute after the
// generation-safety guard has been raised, because until then a crash must
// still be able to recover from that older generation.
//
// Destructive sites are declared, not inferred:
//
//   - //thynvm:destroys-generation <what> on a statement's line (or the
//     line above) marks that statement as destroying an older image;
//   - the same directive in a function's doc comment classifies the whole
//     function, moving the obligation to every call site.
//
// Raise capability comes from the summaries: a function whose doc comment
// carries the guard-raise marker, or that may transitively call one, counts
// as a raise. Dominance is judged on a structured source-order walk from
// the function entry to the destructive site: any call to a raise-capable
// function encountered before the site satisfies the obligation, including
// raises inside the conditions or init clauses that gate the destructive
// write itself (`if gd := c.guardIssue(...); gd > rd { destroy }`).
// Conditions gating a raise are trusted — guard-off mode is the raise
// primitive's own contract, and raising is a monotone no-op — so the
// analyzer catches the bug class that matters: the raise call being deleted
// or reordered after the destruction. Raise calls inside func literals,
// defer statements and go statements do not count (they do not execute
// before the site), and those subtrees are not searched for destructive
// sites either.
var PersistGuard = &Analyzer{
	Name: "persistguard",
	Doc: "require every //thynvm:destroys-generation write to be dominated by a " +
		"guard-raise call on the walk from function entry",
	Run: runPersistGuard,
}

func runPersistGuard(pass *Pass) error {
	for _, file := range pass.Files {
		dirs := pass.fileDirectives(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := docDirective(fn, "destroys-generation"); ok {
				// Function-level classification: the obligation lives at the
				// call sites, which inherit it through the summary table.
				continue
			}
			checkGuardDominance(pass, dirs, fn)
		}
	}
	return nil
}

// checkGuardDominance walks fn's body in source order, tracking whether a
// raise-capable call has executed, and reports every destructive site
// reached first. ast.Inspect's pre-order traversal visits an if-statement's
// init clause before its body, so a raise in the gating condition dominates
// the writes it gates.
func checkGuardDominance(pass *Pass, dirs map[int][]directive, fn *ast.FuncDecl) {
	raised := false
	seenDirLine := make(map[int]bool) // one finding per marker directive
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false // does not execute here; neither raises nor destroys
		case *ast.CallExpr:
			callee := funcObj(pass.TypesInfo, n)
			if callee == nil || callee.Pkg() == nil || !InModule(callee.Pkg().Path()) {
				return true
			}
			cs := pass.Summaries.Lookup(FuncKey(callee))
			if cs == nil {
				return true
			}
			// A callee that raises the guard itself (RaisesGuard) discharges
			// its own obligation even when it also destroys.
			if cs.DestroysGen && !cs.RaisesGuard && !raised {
				pass.Reportf(n.Pos(),
					"call to %s destroys an older generation's image (%s) with no dominating "+
						"generation-safety-guard raise; raise the guard first",
					shortKey(FuncKey(callee)), cs.DestroysWhat)
			}
			if cs.RaisesGuard {
				raised = true
			}
		case ast.Stmt:
			line := pass.Fset.Position(n.Pos()).Line
			for _, dLine := range []int{line, line - 1} {
				if seenDirLine[dLine] {
					continue
				}
				for _, d := range dirs[dLine] {
					if d.name != "destroys-generation" {
						continue
					}
					seenDirLine[dLine] = true
					if !raised {
						pass.Reportf(n.Pos(),
							"write destroying an older generation's image (%s) with no dominating "+
								"generation-safety-guard raise; raise the guard first",
							d.reason)
					}
				}
			}
		}
		return true
	})
}

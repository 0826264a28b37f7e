// Package analysis implements the thynvm-lint static checks: a small,
// dependency-free analog of golang.org/x/tools/go/analysis carrying seven
// project-specific analyzers that make the simulator's determinism,
// hot-path and durability-ordering guarantees un-regressable at compile
// time.
//
// The framework mirrors the upstream API shape (Analyzer, Pass,
// Diagnostic) so the analyzers could be ported to the real go/analysis
// driver verbatim if x/tools ever becomes a dependency; until then the
// suite runs entirely on the standard library: internal/analysis/load
// parses and type-checks, and Run drives the analyzers for the CLI, the
// tests and the fixture runner alike.
//
// The suite is interprocedural: a call graph with per-function summaries
// (allocates? raises the generation-safety guard?) is computed bottom-up
// over strongly connected components (summary.go) and shared by every
// analyzer through Pass.Summaries — see DESIGN.md §14.
//
// Escape hatches are line directives. A directive on the flagged line, or
// on the line directly above it, suppresses the finding:
//
//	//thynvm:allow-maporder <reason>     — sanctioned map iteration
//	//thynvm:allow-walltime <reason>     — sanctioned wall-clock/entropy use
//	//thynvm:allow-alloc <reason>        — deliberate amortized allocation
//	//thynvm:allow-nodefer <reason>      — cleanup proven on all paths by hand
//	//thynvm:allow-concurrency <reason>  — sanctioned concurrency primitive
//
// Marker directives classify code rather than suppress findings:
// //thynvm:hotpath in a function's doc comment opts the function into the
// hotalloc and hotpathprop checks, the guard-raise marker names the
// generation-safety-guard raise primitive, and //thynvm:destroys-generation
// <what> classifies a write (or a whole function) as destroying an older
// checkpoint generation's image, obliging a dominating guard raise
// (persistguard). Every allow-* directive requires a reason; stale and
// unknown directives are errors in `thynvm-lint -report` (report.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"thynvm/internal/analysis/load"
)

// An Analyzer describes one named check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(*Pass) error
}

// All is the thynvm-lint suite in reporting order: the four
// intraprocedural analyzers, then the three interprocedural ones.
var All = []*Analyzer{
	MapOrder, WallTime, HotAlloc, DeferClose,
	HotPathProp, PersistGuard, GoSafety,
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Summaries is the per-function summary table of the whole run
	// (summary.go), shared across analyzers and packages.
	Summaries *Summaries

	// Audit records every escape-hatch directive that suppresses a
	// finding, so the run's report can flag the stale ones (report.go).
	Audit *DirectiveAudit

	// directives caches the per-file line → directive table.
	directives map[*ast.File]map[int][]directive
}

// Run applies analyzers to every package of pkgs as one run of the suite.
// It computes one summary table over all of pkgs, so the interprocedural
// analyzers resolve calls across package boundaries, and one directive
// audit, cross-checked into the returned report once every pass is done.
// Diagnostics come in pkgs order, sorted by position (then analyzer)
// within a package. An analyzer error aborts the run. Type errors are the
// caller's to report: they stay in each package's TypeErrors.
func Run(pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, *Report, error) {
	sums := ComputeSummaries(pkgs)
	audit := &DirectiveAudit{hits: make(map[auditKey]int)}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		start := len(diags)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Summaries: sums,
				Audit:     audit,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
			}
		}
		own := diags[start:]
		sort.Slice(own, func(i, j int) bool {
			if own[i].Pos != own[j].Pos {
				return own[i].Pos < own[j].Pos
			}
			return own[i].Analyzer < own[j].Analyzer
		})
	}
	return diags, BuildReport(pkgs, audit), nil
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// directivePrefix introduces all thynvm-lint control comments.
const directivePrefix = "//thynvm:"

// A directive is one parsed //thynvm: control comment.
type directive struct {
	name   string // e.g. "allow-walltime"
	reason string
}

// parseDirective parses a single comment, returning ok=false for ordinary
// comments.
func parseDirective(text string) (directive, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return directive{}, false
	}
	name, reason, _ := strings.Cut(rest, " ")
	return directive{name: name, reason: strings.TrimSpace(reason)}, true
}

// directiveLines builds the line → directives table for one file.
func directiveLines(fset *token.FileSet, file *ast.File) map[int][]directive {
	table := make(map[int][]directive)
	for _, group := range file.Comments {
		for _, c := range group.List {
			d, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			table[line] = append(table[line], d)
		}
	}
	return table
}

// fileDirectives returns the line → directives table for file, building it
// on first use.
func (p *Pass) fileDirectives(file *ast.File) map[int][]directive {
	if d, ok := p.directives[file]; ok {
		return d
	}
	table := directiveLines(p.Fset, file)
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]directive)
	}
	p.directives[file] = table
	return table
}

// allowedAt reports whether table carries an //thynvm:<name> directive with
// a reason on pos's line or the line directly above, and returns the line
// that carries it. Directives without a reason do not suppress anything: the
// reason is the audit trail the escape hatch exists to capture.
func allowedAt(table map[int][]directive, fset *token.FileSet, pos token.Pos, name string) (int, bool) {
	line := fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if directiveOnLine(table[l], name) {
			return l, true
		}
	}
	return 0, false
}

// Allowed reports whether a finding at pos inside file is suppressed by an
// //thynvm:<name> directive on the same line or the line directly above,
// and records the suppression with the pass's directive audit.
func (p *Pass) Allowed(file *ast.File, pos token.Pos, name string) bool {
	line, ok := allowedAt(p.fileDirectives(file), p.Fset, pos, name)
	if ok {
		p.Audit.hit(p.Fset.Position(pos).Filename, line, name)
	}
	return ok
}

func directiveOnLine(ds []directive, name string) bool {
	for _, d := range ds {
		if d.name == name && d.reason != "" {
			return true
		}
	}
	return false
}

// docDirective returns the first //thynvm:<name> directive in fn's doc
// comment.
func docDirective(fn *ast.FuncDecl, name string) (directive, bool) {
	if fn.Doc == nil {
		return directive{}, false
	}
	for _, c := range fn.Doc.List {
		if d, ok := parseDirective(c.Text); ok && d.name == name {
			return d, true
		}
	}
	return directive{}, false
}

// HotPath reports whether fn's doc comment carries //thynvm:hotpath.
func HotPath(fn *ast.FuncDecl) bool {
	_, ok := docDirective(fn, "hotpath")
	return ok
}

// funcObj resolves a call's callee to its *types.Func (package function or
// method), or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgCall reports whether call invokes a package-level function of the
// package with import path pkgPath whose name is in names (empty names
// matches any function of the package).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// Command thynvm-lint runs the project's custom static analyzers
// (internal/analysis: maporder, walltime, hotalloc, deferclose, and the
// interprocedural hotpathprop, persistguard, errflow, gosafety) over Go
// package patterns. The suite makes the simulator's headline guarantees —
// byte-identical output for any -parallel value, zero-alloc hot paths,
// profile/file cleanup on every CLI exit path, guard-before-destroy
// checkpoint ordering, durable-error propagation — un-regressable at
// compile time; the golden tests then only ever confirm what the checker
// already proved.
//
// The tool loads every matched package first and computes the module-wide
// per-function summary table once (DESIGN.md §14), so the interprocedural
// analyzers see the whole call graph regardless of which package they are
// visiting.
//
// Usage:
//
//	thynvm-lint [packages]          # default: ./...
//	thynvm-lint -list               # print the analyzers and exit
//	thynvm-lint -report [packages]  # findings + escape-hatch audit
//
// -report additionally prints per-directive counts and fails (exit 1) on
// stale allow-* directives that no longer suppress any finding, unknown
// directive names, and allow-* directives missing a reason.
//
// Exit status: 0 clean, 1 findings (or type errors), 2 usage or load
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"thynvm/internal/analysis"
	"thynvm/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("thynvm-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	report := fs.Bool("report", false, "audit //thynvm: directives after the run (stale/unknown directives are errors)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thynvm-lint:", err)
		return 2
	}

	// One summary table for the whole load: the interprocedural analyzers
	// resolve call edges across package boundaries through it.
	units := make([]analysis.SummaryUnit, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = analysis.SummaryUnit{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
	}
	sums := analysis.ComputeSummaries(units)
	audit := analysis.NewDirectiveAudit()

	failed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "thynvm-lint: %s: type error: %v\n", pkg.ImportPath, terr)
			failed = true
		}
		diags, err := runAnalyzers(pkg, sums, audit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thynvm-lint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			failed = true
		}
	}
	if *report {
		r := analysis.BuildReport(units, audit)
		fmt.Print(r.Format())
		if !r.OK() {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runAnalyzers applies the whole suite to one loaded package, returning
// position-sorted diagnostics.
func runAnalyzers(pkg *load.Package, sums *analysis.Summaries, audit *analysis.DirectiveAudit) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analysis.All {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Summaries: sums,
			Audit:     audit,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Command thynvm-lint runs the project's seven custom static analyzers
// (internal/analysis: maporder, walltime, hotalloc, deferclose, and the
// interprocedural hotpathprop, persistguard, gosafety) over Go package
// patterns. The suite makes the simulator's headline guarantees —
// byte-identical output for any -parallel value, zero-alloc hot paths,
// profile/file cleanup on every CLI exit path, guard-before-destroy
// checkpoint ordering — un-regressable at compile time; the golden tests
// then only ever confirm what the checker already proved.
//
// The tool loads every matched package first and runs the suite over all
// of them at once through analysis.Run, which computes the module-wide
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
	diags, r, err := analysis.Run(pkgs, analysis.All)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thynvm-lint:", err)
		return 2
	}

	failed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "thynvm-lint: %s: type error: %v\n", pkg.ImportPath, terr)
			failed = true
		}
	}
	for _, d := range diags {
		// Every load shares one file set, so any package's resolves d.Pos.
		fmt.Printf("%s: %s (%s)\n", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
		failed = true
	}
	if *report {
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

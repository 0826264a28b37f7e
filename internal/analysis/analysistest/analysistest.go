// Package analysistest runs a thynvm-lint analyzer over fixture packages
// and compares the diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library.
//
// Fixtures live under testdata/src/<import-path>/, GOPATH-style, so that a
// fixture can carry any import path — which is how it opts in or out of
// the suite's simulation-package scope (analysis.InSimScope). Each fixture
// package may import only the standard library. An expectation is a
// trailing comment on the offending line:
//
//	for k := range m { // want `range over map`
//
// whose backquoted or double-quoted arguments are regular expressions that
// must each match one diagnostic reported on that line; diagnostics with
// no matching expectation, and expectations with no matching diagnostic,
// fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"thynvm/internal/analysis"
	"thynvm/internal/analysis/load"
)

// Run applies a to every fixture package and checks expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	for _, path := range importPaths {
		runOne(t, testdata, a, path)
	}
}

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, importPath string) {
	t.Helper()
	fset, files, pkg, info := check(t, testdata, importPath)
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s: %v", importPath, a.Name, err)
	}

	wants := collectWants(t, fset, files)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		if !matchWant(wants, key, d.Message) {
			t.Errorf("%s: unexpected diagnostic at %s: %s", importPath, key, d.Message)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: no diagnostic at %s matching %q", importPath, key, re)
		}
	}
}

// Audit runs analyzers over one fixture package the way `thynvm-lint
// -report` runs the suite, with one summary table and one directive audit,
// fails the test on any diagnostic, and returns the directive report.
func Audit(t *testing.T, testdata, importPath string, analyzers ...*analysis.Analyzer) *analysis.Report {
	t.Helper()
	fset, files, pkg, info := check(t, testdata, importPath)
	unit := analysis.SummaryUnit{Fset: fset, Files: files, Pkg: pkg, Info: info}
	sums := analysis.ComputeSummaries([]analysis.SummaryUnit{unit})
	audit := analysis.NewDirectiveAudit()
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Summaries: sums,
			Audit:     audit,
			Report: func(d analysis.Diagnostic) {
				t.Errorf("%s: %s: %s (%s)", importPath, fset.Position(d.Pos), d.Message, a.Name)
			},
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: analyzer %s: %v", importPath, a.Name, err)
		}
	}
	return analysis.BuildReport([]analysis.SummaryUnit{unit}, audit)
}

// check parses and type-checks one fixture package.
func check(t *testing.T, testdata, importPath string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(importPath))
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("%s: %v", importPath, err)
	}
	info := load.NewInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		t.Fatalf("%s: fixture does not type-check: %v", importPath, typeErrs)
	} else if err != nil {
		t.Fatalf("%s: fixture does not type-check: %v", importPath, err)
	}
	return fset, files, pkg, info
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture .go files in %s", dir)
	}
	return files, nil
}

// wantArg extracts one double- or back-quoted string starting at s, which
// must begin at the quote character.
var wantArg = regexp.MustCompile("^(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// collectWants parses every `// want` comment into file:line → pending
// regexps.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
					m := wantArg.FindString(rest)
					if m == "" {
						t.Fatalf("%s: malformed want argument %q", key, rest)
					}
					rest = rest[len(m):]
					pat := strings.Trim(m, "`")
					if m[0] == '"' {
						var err error
						if pat, err = strconv.Unquote(m); err != nil {
							t.Fatalf("%s: malformed want argument %s: %v", key, m, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// matchWant consumes the first pending expectation at key matching msg.
func matchWant(wants map[string][]*regexp.Regexp, key, msg string) bool {
	for i, re := range wants[key] {
		if re.MatchString(msg) {
			wants[key] = append(wants[key][:i], wants[key][i+1:]...)
			if len(wants[key]) == 0 {
				delete(wants, key)
			}
			return true
		}
	}
	return false
}

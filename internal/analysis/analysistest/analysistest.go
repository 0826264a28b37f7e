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
	"go/token"
	"path/filepath"
	"regexp"
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
		pkg := loadFixture(t, testdata, path)
		diags, _, err := analysis.Run([]*load.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		wants := collectWants(t, pkg.Fset, pkg.Files)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
			if !matchWant(wants, key, d.Message) {
				t.Errorf("%s: unexpected diagnostic at %s: %s", path, key, d.Message)
			}
		}
		for key, res := range wants {
			for _, re := range res {
				t.Errorf("%s: no diagnostic at %s matching %q", path, key, re)
			}
		}
	}
}

// Audit runs analyzers over one fixture package the way `thynvm-lint
// -report` runs the suite, fails the test on any diagnostic, and returns
// the directive report.
func Audit(t *testing.T, testdata, importPath string, analyzers ...*analysis.Analyzer) *analysis.Report {
	t.Helper()
	pkg := loadFixture(t, testdata, importPath)
	diags, report, err := analysis.Run([]*load.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("%s: %v", importPath, err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s (%s)", importPath, pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return report
}

// loadFixture loads the fixture package testdata/src/<importPath>, which
// must type-check.
func loadFixture(t *testing.T, testdata, importPath string) *load.Package {
	t.Helper()
	pkg, err := load.Dir(filepath.Join(testdata, "src", filepath.FromSlash(importPath)), importPath)
	if err != nil {
		t.Fatalf("%s: %v", importPath, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("%s: fixture does not type-check: %v", importPath, pkg.TypeErrors)
	}
	return pkg
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

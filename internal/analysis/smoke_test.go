package analysis_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"thynvm/internal/analysis"
	"thynvm/internal/analysis/load"
)

// TestTreeIsClean is the suite's core guarantee, run in-process: every
// package of this module passes all eight analyzers in one analysis.Run,
// the way cmd/thynvm-lint runs them. Any regression — a map range sneaking
// into internal/core, an allocation eroding a //thynvm:hotpath function's
// transitive call tree, a guard raise deleted before a
// generation-destroying write — fails `go test` before it can reach CI's
// lint step. The directive audit runs too: a stale allow-* escape hatch
// anywhere in the tree is a failure.
func TestTreeIsClean(t *testing.T) {
	findings, report, _ := lint(t, "../..")
	if findings != "" {
		t.Errorf("findings on the clean tree:\n%s", findings)
	}
	for _, p := range report.Problems {
		t.Errorf("directive audit: %s: %s: %s", p.Pos, p.Kind, p.Message)
	}
}

// lint runs the whole suite in-process over the module at dir and returns
// its type errors and findings, one a line as cmd/thynvm-lint prints them,
// the directive report and the number of packages loaded.
func lint(t *testing.T, dir string) (string, *analysis.Report, int) {
	t.Helper()
	pkgs, err := load.Packages(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader is missing the module", len(pkgs))
	}
	diags, report, err := analysis.Run(pkgs, analysis.All)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(&b, "%s: type error: %v\n", pkg.ImportPath, terr)
		}
	}
	for _, d := range diags {
		fmt.Fprintf(&b, "%s: %s (%s)\n", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return b.String(), report, len(pkgs)
}

// TestLintCLI builds cmd/thynvm-lint and checks its exit-status contract
// end to end: 0 on this (clean) tree, 1 on a module where each analyzer
// has something to find.
func TestLintCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lint binary")
	}
	bin := filepath.Join(t.TempDir(), "thynvm-lint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/thynvm-lint")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building thynvm-lint: %v\n%s", err, out)
	}

	// -report on the clean tree also audits every directive: exit 0 means
	// zero findings AND zero stale/unknown/reason-less escape hatches.
	clean := exec.Command(bin, "-report", "./...")
	clean.Dir = "../.."
	out, err := clean.CombinedOutput()
	if err != nil {
		t.Fatalf("thynvm-lint -report ./... on a clean tree: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no stale, unknown or reason-less directives") {
		t.Errorf("clean-tree report did not confirm directive hygiene:\n%s", out)
	}

	// A scratch module named thynvm, so its internal/core and internal/mem
	// are in scope. Each of the eight analyzers has something to find, the
	// errflow case crossing a package boundary (core drops an error that
	// mem's summaries say carries a Sync error).
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module thynvm\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "mem", "img.go"), `package mem

type Image struct{ dirty bool }

func (im *Image) Sync() error {
	im.dirty = false
	return nil
}

// SyncAll has an error result carrying Image.Sync's error.
func SyncAll(im *Image) error { return im.Sync() }
`)
	writeFile(t, filepath.Join(dir, "internal", "core", "bad.go"), `package core

import (
	"os"
	"time"

	"thynvm/internal/mem"
)

func MapSum(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

func Stamp() int64 { return time.Now().UnixNano() }

//thynvm:hotpath
func Buf() []byte { return make([]byte, 64) }

func Leak(path string) {
	f, _ := os.Create(path)
	f.WriteString("x")
	f.Close()
}

//thynvm:hotpath
func Fast() byte { return helperA() }

func helperA() byte { return helperB()[0] }

func helperB() []byte { return make([]byte, 8) }

func Recycle(slots []byte) {
	//thynvm:destroys-generation reuses the previous generation's slot
	slots[0] = 1
}

func DropSync(im *mem.Image) {
	mem.SyncAll(im)
}

func Spawn(ch chan int) {
	go MapSum(nil)
	ch <- 1
}

//thynvm:allow-walltime cached at startup
func Pure() int { return 42 }
`)

	dirty := exec.Command(bin, "./...")
	dirty.Dir = dir
	out, err = dirty.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("thynvm-lint on a dirty tree: want exit 1, got %v\n%s", err, out)
	}
	for _, a := range analysis.All {
		if !strings.Contains(string(out), "("+a.Name+")") {
			t.Errorf("dirty-tree output missing a %s finding:\n%s", a.Name, out)
		}
	}

	// -report on the dirty module flags the allow-walltime directive that
	// suppresses nothing as stale.
	report := exec.Command(bin, "-report", "./...")
	report.Dir = dir
	out, err = report.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("thynvm-lint -report on a stale directive: want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "stale") || !strings.Contains(string(out), "no longer suppresses any finding") {
		t.Errorf("report output missing the stale-directive error:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

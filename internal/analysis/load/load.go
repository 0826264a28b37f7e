// Package load is the only code in the thynvm-lint suite that parses and
// type-checks Go, using only the standard library. Packages loads `go
// list` patterns (a module, or a copy of one); Dir loads one directory
// under a chosen import path (the analyzer fixtures).
//
// Imports between the packages of one load are satisfied by type-checking
// the imported package first. Every other import — in practice the
// standard library — is read from compiler export data by one importer
// shared by the whole process, so each such package is read once however
// many loads import it. The export files come from the build cache: each
// load runs one batched `go list -export -deps` over the imports the
// process has not seen yet. That table is keyed by import path, so one
// process must not import two versions of a package from outside its
// loads. The loader needs no network and no GOPATH.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	// Fset is the file set shared by every load in the process, so one
	// file set resolves any token.Pos the loader hands out.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects non-fatal type-checking problems. A package
	// with type errors still carries partial information, but the lint
	// driver treats any entry here as a failure: the tree must compile.
	TypeErrors []error
}

var (
	// fset is shared by every load: the export-data importer records the
	// positions of the objects it reads in it.
	fset = token.NewFileSet()

	// The process-wide importer for packages outside a load. The gc
	// importer is not safe for concurrent use, so extMu guards it and the
	// export-file table it reads.
	extMu       sync.Mutex
	extFiles    = make(map[string]string) // import path → export data file
	extImporter = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := extFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
)

// Packages loads and type-checks the packages matching patterns, rooted at
// dir ("" for the current directory), sorted by import path. Test files are
// not included: the lint suite guards shipping code, and _test.go files may
// use wall-clock and maps freely.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-json=ImportPath,Dir,GoFiles"}, patterns...))
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, len(listed))
	for i, lp := range listed {
		if pkgs[i], err = parse(lp.ImportPath, lp.Dir, lp.GoFiles); err != nil {
			return nil, err
		}
	}
	if err := checkLoad(dir, pkgs); err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// Dir loads and type-checks the .go files in dir as one package with the
// given import path, which need not match dir: a fixture under testdata
// takes whatever import path puts it in or out of an analyzer's scope.
func Dir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	pkg, err := parse(importPath, dir, names)
	if err != nil {
		return nil, err
	}
	if err := checkLoad(dir, []*Package{pkg}); err != nil {
		return nil, err
	}
	return pkg, nil
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// goList runs `go list` with args in dir and decodes its JSON output. The
// go tool is necessarily present: it is how anything in this repo builds.
func goList(dir string, args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", args, err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// parse parses one package's files into the shared file set.
func parse(importPath, dir string, names []string) (*Package, error) {
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: fset}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// checkLoad type-checks one load's parsed packages, first making sure the
// process-wide importer can read every import from outside the load.
func checkLoad(dir string, pkgs []*Package) error {
	l := &loader{pkgs: make(map[string]*Package, len(pkgs)), busy: make(map[string]bool)}
	for _, pkg := range pkgs {
		l.pkgs[pkg.ImportPath] = pkg
	}
	outside := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err == nil && l.pkgs[path] == nil {
					outside[path] = true
				}
			}
		}
	}
	if err := listExports(dir, outside); err != nil {
		return err
	}
	for _, pkg := range pkgs {
		l.check(pkg)
	}
	return nil
}

// listExports records the export data files of paths and of everything
// they import, with one `go list -export -deps` over the paths not seen
// before. unsafe has no export file; the importer resolves it itself.
func listExports(dir string, paths map[string]bool) error {
	extMu.Lock()
	defer extMu.Unlock()
	var missing []string
	for path := range paths {
		if _, ok := extFiles[path]; !ok && path != "unsafe" {
			missing = append(missing, path)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	listed, err := goList(dir, append([]string{"-export", "-deps", "-json=ImportPath,Export"}, missing...))
	if err != nil {
		return err
	}
	for _, lp := range listed {
		if lp.Export != "" {
			extFiles[lp.ImportPath] = lp.Export
		}
	}
	return nil
}

// A loader type-checks the packages of one load. It is their importer: a
// package of the load is checked the first time another one imports it,
// and anything else comes from the process-wide export-data importer.
type loader struct {
	pkgs map[string]*Package
	busy map[string]bool // being checked: importing one again is a cycle
}

func (l *loader) Import(path string) (*types.Package, error) {
	pkg, ok := l.pkgs[path]
	if !ok {
		extMu.Lock()
		defer extMu.Unlock()
		return extImporter.Import(path)
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.check(pkg)
	return pkg.Types, nil
}

// check type-checks pkg unless it already has been.
func (l *loader) check(pkg *Package) {
	if pkg.Types != nil {
		return
	}
	l.busy[pkg.ImportPath] = true
	defer delete(l.busy, pkg.ImportPath)
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check reports the first hard error; soft errors land in TypeErrors.
	// Either way the caller sees them via TypeErrors, so analysis can
	// proceed on whatever information exists.
	tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
}

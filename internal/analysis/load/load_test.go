package load_test

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thynvm/internal/analysis/load"
)

// Fixture loads and module loads in one process share one export-data
// importer, so they see one *types.Package per standard-library path.
func TestLoadsShareOneImporter(t *testing.T) {
	pkgs, err := load.Packages("../../..", "./internal/analysis/load")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{"cmd/deferfixture", "internal/core/wallfixture"} {
		pkg, err := load.Dir(filepath.Join("../testdata/src/thynvm", fixture), "thynvm/"+fixture)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	var osPkgs []*types.Package
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == "os" {
				osPkgs = append(osPkgs, imp)
			}
		}
	}
	if len(osPkgs) != 3 || osPkgs[0] != osPkgs[1] || osPkgs[1] != osPkgs[2] {
		t.Errorf("three loads importing os got %d imports of it, not all one package", len(osPkgs))
	}
}

func TestMissingImportIsAnError(t *testing.T) {
	dir := t.TempDir()
	src := "package a\n\nimport _ \"does/not/exist\"\n"
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := load.Dir(dir, "example/a"); err == nil || !strings.Contains(err.Error(), "does/not/exist") {
		t.Errorf("loading a package that imports a missing path: err = %v, want one naming the path", err)
	}
}

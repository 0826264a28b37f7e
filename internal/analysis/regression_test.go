package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thynvm/internal/analysis/load"
)

// TestSeededRegressions proves the interprocedural analyzers catch the two
// real bug classes they were built for, by re-introducing each into a copy
// of this module and asserting the suite, run in-process over the copy,
// reports the right finding:
//
//   - persistguard: the shadow-paging flush raise (the PR 9 bug class) is
//     deleted, so the slot-reuse write destroys older generations' images
//     with no dominating guard raise;
//   - errflow: the Sync-error check in Storage.Snapshot becomes a bare
//     call, silently dropping a durability-critical error.
func TestSeededRegressions(t *testing.T) {
	dir := t.TempDir()
	copyModule(t, "../..", dir)

	mutate(t, filepath.Join(dir, "internal", "baseline", "shadow.go"),
		"gd = s.meta.Guard.Raise(s.nvm, now, now, s.seq-1)",
		"gd = 0")
	mutate(t, filepath.Join(dir, "internal", "mem", "backing.go"),
		"if err := s.Sync(); err != nil {\n\t\treturn err\n\t}",
		"s.Sync()")

	tree, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	text, _, n := lint(t, dir)
	if n != len(tree) {
		t.Errorf("the copy loads %d packages, the tree %d: copyModule copied a directory outside the module", n, len(tree))
	}
	if !strings.Contains(text, "(persistguard)") ||
		!strings.Contains(text, "flush reuses the uncommitted shadow slot") {
		t.Errorf("deleted shadow flush raise not caught by persistguard:\n%s", text)
	}
	if !strings.Contains(text, "(errflow)") ||
		!strings.Contains(text, "error from Storage.Sync discarded") {
		t.Errorf("dropped Snapshot sync error not caught by errflow:\n%s", text)
	}
}

// copyModule copies the module's Go sources (go.mod plus every non-test
// .go file outside testdata, .git and nested modules) into dst, preserving
// layout. A subdirectory with its own go.mod is another module: copied
// without that go.mod, it would join this one.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o777); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mutate applies one exact-match source edit, failing if the anchor is not
// found exactly once (so the seeded bug tracks the real code).
func mutate(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), old); n != 1 {
		t.Fatalf("%s: mutation anchor found %d times, want 1:\n%s", path, n, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o666); err != nil {
		t.Fatal(err)
	}
}

package analysis

import "strings"

// simPackages lists the import-path roots of the simulation core: the
// packages whose outputs feed the byte-identical tables, CSV, telemetry
// and JSON the golden tests pin (DESIGN.md §7). Determinism checks
// (maporder, walltime) apply only here; cmd/ and internal/pool may use
// wall-clock freely for progress reporting, and test-only helpers live
// outside the list.
var simPackages = []string{
	"thynvm/internal/core",
	"thynvm/internal/mem",
	"thynvm/internal/cache",
	"thynvm/internal/sim",
	"thynvm/internal/baseline",
	"thynvm/internal/commit",
	"thynvm/internal/ctl",
	"thynvm/internal/obs",
	"thynvm/internal/trace",
	"thynvm/internal/radix",
	"thynvm/internal/verify",
	"thynvm/internal/torture",
}

// InSimScope reports whether the package at importPath is part of the
// deterministic simulation core (including subpackages of a listed root,
// which is how analysistest fixtures opt in).
func InSimScope(importPath string) bool {
	for _, root := range simPackages {
		if importPath == root || strings.HasPrefix(importPath, root+"/") {
			return true
		}
	}
	return false
}

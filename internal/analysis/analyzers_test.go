package analysis_test

import (
	"strings"
	"testing"

	"thynvm/internal/analysis"
	"thynvm/internal/analysis/analysistest"
)

// Each analyzer runs over positive fixtures (under an import path inside
// the simulation scope, where every `// want` expectation must fire) and,
// for the scope-limited analyzers, a cmd/ fixture that does the same
// forbidden things legally and must stay silent.

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder,
		"thynvm/internal/core/mapfixture",
		"thynvm/cmd/mapfixture")
}

func TestWallTime(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WallTime,
		"thynvm/internal/core/wallfixture",
		"thynvm/cmd/mapfixture")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotAlloc,
		"thynvm/internal/core/hotfixture")
}

func TestDeferClose(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeferClose,
		"thynvm/cmd/deferfixture")
}

func TestHotPathProp(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPathProp,
		"thynvm/internal/core/hotpropfixture")
}

func TestPersistGuard(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PersistGuard,
		"thynvm/internal/core/guardfixture")
}

func TestGoSafety(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.GoSafety,
		"thynvm/internal/core/gofixture",
		"thynvm/cmd/gofixture")
}

// TestAuditCreditsCalleeAllowAlloc: an //thynvm:allow-alloc that keeps a
// hotpath function's non-hotpath callee allocation-free is load-bearing
// (deleting it brings hotpathprop's finding back), so the directive audit
// must not call it stale; one that no hotpath function reaches must be.
func TestAuditCreditsCalleeAllowAlloc(t *testing.T) {
	report := analysistest.Audit(t, "testdata", "thynvm/internal/core/auditfixture",
		analysis.HotAlloc, analysis.HotPathProp)
	if len(report.Problems) != 1 {
		t.Fatalf("report problems = %+v, want exactly the unreached directive stale", report.Problems)
	}
	if p := report.Problems[0]; p.Kind != "stale" || !strings.Contains(p.Message, "nothing hot reaches this") {
		t.Errorf("report problem = %+v, want the unreached directive stale", p)
	}
}

package thynvm_test

// Golden determinism tests for the hot-path data-structure overhaul (PR 3):
// the radix-indexed storage and translation tables must leave every
// observable output byte-identical to the map-backed implementation. The
// golden digests in testdata/golden_pr3.json were generated from the
// pre-radix implementation; regenerate with
//
//	go test -run TestGoldenOutputs -update-golden
//
// only when an intentional behavior change is made (and say so in the PR).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"thynvm"
	"thynvm/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_pr3.json from the current implementation")

const goldenPath = "testdata/golden_pr3.json"

type goldenFile struct {
	// Telemetry digests per system: sha256 of the JSONL event log, the
	// Chrome trace, and the metrics JSON of a fixed seeded run, plus the
	// run's cycle/instruction counts.
	Systems map[string]goldenSystem `json:"systems"`
	// MicroJSON is the sha256 of the small-scale micro sweep's -json-out
	// payload (the BENCH_PR<N>.json format).
	MicroJSON string `json:"micro_json_sha256"`
}

type goldenSystem struct {
	JSONL        string `json:"jsonl_sha256"`
	Chrome       string `json:"chrome_sha256"`
	Metrics      string `json:"metrics_sha256"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenRun executes the fixed workload mix for one system and returns its
// digests. The mix covers both checkpoint schemes (random + streaming
// phases), a crash, and recovery, so the BTT, PTT, journal, and shadow
// paths all contribute to the digested telemetry.
func goldenRun(t *testing.T, k thynvm.SystemKind) goldenSystem {
	t.Helper()
	sys := thynvm.MustNewSystem(k, smallOpts())
	col := obs.NewCollector()
	sys.SetRecorder(col)
	res := sys.Run(thynvm.RandomWorkload(1<<20, 2500, 7))
	res2 := sys.Run(thynvm.StreamingWorkload(1<<20, 2500, 7))
	sys.Drain()
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatalf("%v: recovery failed: %v", k, err)
	}
	res3 := sys.Run(thynvm.SlidingWorkload(1<<20, 2000, 9))
	sys.Drain()

	var jl, ch, me bytes.Buffer
	if err := col.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteChromeTrace(&ch, 3000); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetricsJSON(&me); err != nil {
		t.Fatal(err)
	}
	return goldenSystem{
		JSONL:        digest(jl.Bytes()),
		Chrome:       digest(ch.Bytes()),
		Metrics:      digest(me.Bytes()),
		Cycles:       uint64(res.Cycles) + uint64(res2.Cycles) + uint64(res3.Cycles),
		Instructions: res.Instructions + res2.Instructions + res3.Instructions,
	}
}

// goldenMicroJSON runs a reduced micro sweep and digests its machine-
// readable output (the same bytes `thynvm-bench -json-out` writes).
func goldenMicroJSON(t *testing.T) string {
	t.Helper()
	sc := thynvm.ScaleSmall()
	sc.MicroOps = 6_000
	sc.MicroFootprint = 4 << 20
	sc.Parallel = 1
	mr, err := thynvm.RunMicro(sc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := mr.BenchJSON("golden")
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

// TestGoldenOutputs asserts that telemetry bytes, result counters, and the
// -json-out payload match the digests captured from the map-backed seed
// implementation for ThyNVM and all baselines.
func TestGoldenOutputs(t *testing.T) {
	got := goldenFile{Systems: map[string]goldenSystem{}}
	names := make([]string, 0, 5)
	for _, k := range thynvm.AllSystems() {
		names = append(names, k.String())
		got.Systems[k.String()] = goldenRun(t, k)
	}
	sort.Strings(names)
	got.MicroJSON = goldenMicroJSON(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden on the reference implementation): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		g, w := got.Systems[name], want.Systems[name]
		if g != w {
			t.Errorf("%s: outputs diverged from the map-backed reference:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if got.MicroJSON != want.MicroJSON {
		t.Errorf("micro sweep -json-out payload diverged: got %s want %s", got.MicroJSON, want.MicroJSON)
	}
}

// TestGoldenCloneIndependence guards Storage.Clone's deep-copy contract at
// the system level: a recovery after crash must not be affected by later
// writes through a cloned snapshot's source (regression test for the
// preallocated radix clone).
func TestGoldenCloneIndependence(t *testing.T) {
	sys := thynvm.MustNewSystem(thynvm.SystemThyNVM, smallOpts())
	payload := []byte(fmt.Sprintf("golden-%d", 42))
	sys.Write(0x2000, payload)
	sys.Checkpoint()
	sys.Drain()
	sys.Write(0x2000, []byte("overwritten-after"))
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	sys.Read(0x2000, buf)
	if !bytes.Equal(buf, payload) {
		t.Fatalf("recovered %q, want %q", buf, payload)
	}
}

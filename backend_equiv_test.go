package thynvm_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"thynvm"
	"thynvm/internal/obs"
)

// TestBackendEquivalence: every system is a backend beneath the cache
// hierarchy (cache.Backend), and the five differ in timing and durability,
// never in contents. The same seeded workload must leave the software-visible
// image ideal DRAM leaves on every system, and a second run on the same
// system must reproduce its results, stats, telemetry bytes and image.
func TestBackendEquivalence(t *testing.T) {
	const footprint = 1 << 20
	const ops = 2500

	type capture struct {
		res   thynvm.Result
		stats thynvm.ControllerStats
		tele  []byte
		image []byte
	}
	runOn := func(t *testing.T, kind thynvm.SystemKind) capture {
		t.Helper()
		opts := thynvm.Options{
			PhysBytes: 16 << 20,
			EpochLen:  80 * time.Microsecond,
		}
		sys, err := thynvm.NewSystem(kind, opts)
		if err != nil {
			t.Fatalf("NewSystem(%v): %v", kind, err)
		}
		defer sys.Close()
		col := obs.NewCollector()
		sys.SetRecorder(col)
		res := sys.Run(thynvm.SlidingWorkload(footprint, ops, 7))
		sys.Drain()
		var tele bytes.Buffer
		if err := col.WriteJSONL(&tele); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		image := make([]byte, footprint)
		sys.Peek(0, image)
		return capture{res: res, stats: sys.Stats(), tele: tele.Bytes(), image: image}
	}

	ref := runOn(t, thynvm.SystemIdealDRAM).image
	if bytes.Equal(ref, make([]byte, footprint)) {
		t.Fatal("the workload left no bytes in ideal DRAM")
	}
	for _, kind := range thynvm.AllSystems() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			first := runOn(t, kind)
			again := runOn(t, kind)
			if !bytes.Equal(first.image, ref) {
				t.Errorf("final image differs from ideal DRAM's")
			}
			if !reflect.DeepEqual(first.res, again.res) {
				t.Errorf("results diverge between runs:\nfirst: %+v\nagain: %+v", first.res, again.res)
			}
			if !reflect.DeepEqual(first.stats, again.stats) {
				t.Errorf("controller stats diverge between runs")
			}
			if !bytes.Equal(first.tele, again.tele) {
				t.Errorf("telemetry streams diverge between runs (%d vs %d bytes)", len(first.tele), len(again.tele))
			}
			if !bytes.Equal(first.image, again.image) {
				t.Errorf("final images diverge between runs")
			}
		})
	}
}

// TestBackendEquivalenceCrashRecover runs the same checkpoint/crash/recover
// sequence on each crash-consistent backend: three checkpointed rounds over
// 64 pages, then a write no checkpoint covers, then a crash. Every backend
// must recover exactly the image the last checkpoint committed.
func TestBackendEquivalenceCrashRecover(t *testing.T) {
	const pages = 64
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	const rounds = 3
	want := make([]byte, 0, pages*len(payload))
	for p := 0; p < pages; p++ {
		want = append(want, byte(rounds-1))
		want = append(want, payload[1:]...)
	}

	for _, kind := range []thynvm.SystemKind{thynvm.SystemThyNVM, thynvm.SystemJournal, thynvm.SystemShadow} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			opts := thynvm.Options{
				PhysBytes: 8 << 20,
				EpochLen:  60 * time.Microsecond,
			}
			sys, err := thynvm.NewSystem(kind, opts)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			defer sys.Close()
			buf := append([]byte(nil), payload...)
			for round := 0; round < rounds; round++ {
				for p := uint64(0); p < pages; p++ {
					buf[0] = byte(round)
					sys.Write(p*4096, buf)
				}
				sys.Checkpoint()
			}
			sys.Drain()
			sys.Write(0, []byte("never-committed"))
			sys.Crash()
			if _, err := sys.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			got := make([]byte, len(want))
			sys.Peek(0, got)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("recovered byte %#x = %#x, want %#x (the last checkpoint's)", i, got[i], want[i])
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

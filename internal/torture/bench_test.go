package torture

import (
	"runtime"
	"testing"
)

// runMix is the benchmark harness's torture mix (perfbench's torture
// workload) at a fifth of its size: one plain and one
// "media bitrot:0:24" / "gens 4" half, 20 schedules per system each, from
// seed 1.
func runMix() []*Schedule {
	plain := GenConfig{Seed: 1, Schedules: 20}
	media := plain
	media.Gens = 4
	media.Media = &MediaFault{Kind: "bitrot", Seed: 0, Count: 24}
	return append(Generate(plain), Generate(media)...)
}

// runAll runs every schedule and fails on an error or a violation.
func runAll(tb testing.TB, scheds []*Schedule) {
	for _, s := range scheds {
		o, err := Run(s)
		if err != nil {
			tb.Fatal(err)
		}
		if o.Violation != "" {
			tb.Fatalf("%s: %s", s.Label, o.Violation)
		}
	}
}

// BenchmarkRun runs runMix. Generating the schedules is untimed; one
// iteration runs all 200. Building, crashing and recovering short-lived
// systems dominates, so this is where whole-system construction and crash
// costs show.
func BenchmarkRun(b *testing.B) {
	scheds := runMix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(b, scheds)
	}
}

// TestRunCostsWhatItTouches: a pass over runMix allocates at most 30 MB,
// measured as the TotalAlloc delta of one pass after a warm-up pass. A
// system's radix tables grow with the keys they hold, a crash clears a
// volatile store without applying or reallocating anything, a closed
// system's storage chunks serve the next system's first writes, and a
// finished schedule's oracle, ideal model and payload buffer serve the
// next schedule. Allocating every chunk and every schedule's scratch anew
// costs about 47 MB a pass.
func TestRunCostsWhatItTouches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops released cache levels, chunks and scratch at random")
	}
	scheds := runMix()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runAll(t, scheds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runAll(t, scheds)
	runtime.ReadMemStats(&after)
	const limit = 30_000_000
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one pass of %d schedules allocated %.1f MB", len(scheds), float64(got)/1e6)
	if got > limit {
		t.Errorf("one pass of %d schedules allocated %d bytes, over %d", len(scheds), got, limit)
	}
}

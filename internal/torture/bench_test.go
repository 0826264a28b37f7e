package torture

import "testing"

// BenchmarkRun runs the benchmark harness's torture mix (perfbench's
// torture workload) at a fifth of its size: one plain and one
// "media bitrot:0:24" / "gens 4" half, 20 schedules per system each, from
// seed 1. Generating the schedules is untimed; one iteration runs all 200.
// Building, crashing and recovering short-lived systems dominates, so this
// is where whole-system construction and crash costs show.
func BenchmarkRun(b *testing.B) {
	plain := GenConfig{Seed: 1, Schedules: 20}
	media := plain
	media.Gens = 4
	media.Media = &MediaFault{Kind: "bitrot", Seed: 0, Count: 24}
	scheds := append(Generate(plain), Generate(media)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scheds {
			o, err := Run(s)
			if err != nil {
				b.Fatal(err)
			}
			if o.Violation != "" {
				b.Fatalf("%s: %s", s.Label, o.Violation)
			}
		}
	}
}

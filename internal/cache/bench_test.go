package cache

import (
	"testing"

	"thynvm/internal/mem"
)

// The benchmarks reuse cache_test.go's flatBackend: a minimal backend so
// hierarchy costs are isolated from the memory-controller model.

// BenchmarkHierarchyReadHit measures the L1-hit read path (the hot case).
func BenchmarkHierarchyReadHit(b *testing.B) {
	h := Default(newFlatBackend())
	var buf [mem.BlockSize]byte
	now := mem.Cycle(0)
	// Touch a working set that fits in L1 (32 KB).
	const span = 16 << 10
	for a := uint64(0); a < span; a += mem.BlockSize {
		now = h.Write(now, a, buf[:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = h.Read(now, uint64(i*mem.BlockSize)%span, buf[:])
	}
}

// BenchmarkHierarchyWriteHit measures the L1-hit write path.
func BenchmarkHierarchyWriteHit(b *testing.B) {
	h := Default(newFlatBackend())
	var buf [mem.BlockSize]byte
	now := mem.Cycle(0)
	const span = 16 << 10
	for a := uint64(0); a < span; a += mem.BlockSize {
		now = h.Write(now, a, buf[:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = h.Write(now, uint64(i*mem.BlockSize)%span, buf[:])
	}
}

// BenchmarkHierarchyReadMiss streams over a footprint much larger than L3,
// exercising fetch, install, eviction, and writeback.
func BenchmarkHierarchyReadMiss(b *testing.B) {
	h := Default(newFlatBackend())
	var buf [mem.BlockSize]byte
	now := mem.Cycle(0)
	const span = 64 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = h.Read(now, uint64(i*17*mem.BlockSize)%span, buf[:])
	}
}

// BenchmarkHierarchyFlushDirty measures the checkpoint cache-flush phase:
// dirty a working set, then flush it.
func BenchmarkHierarchyFlushDirty(b *testing.B) {
	h := Default(newFlatBackend())
	var buf [mem.BlockSize]byte
	now := mem.Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for a := uint64(0); a < 128<<10; a += mem.BlockSize {
			now = h.Write(now, a, buf[:])
		}
		b.StartTimer()
		now, _ = h.FlushDirty(now, 4)
	}
}

// sinkHierarchy keeps BenchmarkNewHierarchy's result live.
var sinkHierarchy *Hierarchy

// BenchmarkNewHierarchy measures building the paper's three-level
// hierarchy, which every simulated system does once.
func BenchmarkNewHierarchy(b *testing.B) {
	back := newFlatBackend()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHierarchy = Default(back)
	}
}

// BenchmarkInvalidateAll measures dropping a warm hierarchy's contents, as
// every simulated crash does.
func BenchmarkInvalidateAll(b *testing.B) {
	h := Default(newFlatBackend())
	var buf [mem.BlockSize]byte
	now := mem.Cycle(0)
	for a := uint64(0); a < 4<<20; a += mem.BlockSize {
		now = h.Write(now, a, buf[:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.InvalidateAll()
	}
}

// BenchmarkCrashReuse measures one short-lived system's cache life, as a
// torture schedule lives it: build a hierarchy from released levels, write
// a 64 KiB footprint, crash (InvalidateAll), release. The paper's hierarchy
// and one with a 16 MiB L3 must cost about the same: building and crashing
// cost what the footprint touched, not what the levels could hold.
func BenchmarkCrashReuse(b *testing.B) {
	l3Big := LevelSpec{Name: "L3", SizeB: 16 << 20, Ways: 16, HitLat: 28}
	for _, bc := range []struct {
		name  string
		specs []LevelSpec
	}{
		{"paper", []LevelSpec{L1Spec(), L2Spec(), L3Spec()}},
		{"l3-16MiB", []LevelSpec{L1Spec(), L2Spec(), l3Big}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			back := newFlatBackend()
			var buf [mem.BlockSize]byte
			life := func() {
				h := NewHierarchy(back, bc.specs...)
				now := mem.Cycle(0)
				for a := uint64(0); a < 64<<10; a += mem.BlockSize {
					now = h.Write(now, a, buf[:])
				}
				h.InvalidateAll()
				h.Release()
			}
			life() // the levels every iteration reuses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				life()
			}
		})
	}
}

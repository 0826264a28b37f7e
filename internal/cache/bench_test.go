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

package cache

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"thynvm/internal/mem"
)

// flatBackend is a test backend with fixed latencies and byte storage.
type flatBackend struct {
	store    *mem.Storage
	readLat  mem.Cycle
	writeLat mem.Cycle
	reads    int
	writes   int
}

func newFlatBackend() *flatBackend {
	return &flatBackend{store: mem.NewStorage(), readLat: 120, writeLat: 0}
}

func (b *flatBackend) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	b.reads++
	b.store.Read(addr, buf)
	return now + b.readLat
}

func (b *flatBackend) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	b.writes++
	b.store.Write(addr, data)
	return now + b.writeLat
}

func tinyHierarchy(b Backend) *Hierarchy {
	// 2 sets x 2 ways x 64B per level: easy to force evictions.
	return NewHierarchy(b,
		LevelSpec{Name: "L1", SizeB: 256, Ways: 2, HitLat: 4},
		LevelSpec{Name: "L2", SizeB: 512, Ways: 2, HitLat: 12},
	)
}

func TestReadMissThenHit(t *testing.T) {
	b := newFlatBackend()
	b.store.Write(0, []byte{42})
	h := NewHierarchy(b, L1Spec())
	buf := make([]byte, 1)
	d1 := h.Read(0, 0, buf)
	if buf[0] != 42 {
		t.Fatalf("read returned %d, want 42", buf[0])
	}
	if d1 != 4+120 {
		t.Errorf("miss latency = %d, want 124", d1)
	}
	d2 := h.Read(d1, 0, buf)
	if d2 != d1+4 {
		t.Errorf("hit latency = %d, want %d", d2-d1, 4)
	}
	if b.reads != 1 {
		t.Errorf("backend saw %d reads, want 1", b.reads)
	}
}

func TestWriteReadRoundTripThroughCache(t *testing.T) {
	b := newFlatBackend()
	h := Default(b)
	want := []byte{1, 2, 3, 4}
	h.Write(0, 100, want)
	got := make([]byte, 4)
	h.Read(0, 100, got)
	if !bytes.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	// Dirty data must NOT have reached the backend yet (write-back).
	raw := make([]byte, 4)
	b.store.Read(100, raw)
	if bytes.Equal(raw, want) {
		t.Error("write-back cache wrote through to backend")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	b := newFlatBackend()
	h := tinyHierarchy(b)
	// L1 has 2 sets; blocks 0,2,4,... map to set 0. Write 3+2 distinct
	// blocks in set 0 to overflow both L1 (2 ways) and L2 (2 ways... L2
	// has 4 sets of 2). Use many conflicting blocks to force eviction to
	// the backend.
	var addrs []uint64
	for i := 0; i < 12; i++ {
		addrs = append(addrs, uint64(i)*uint64(mem.BlockSize)*8) // all set 0 in both levels
	}
	for i, a := range addrs {
		h.Write(0, a, []byte{byte(i + 1)})
	}
	if b.writes == 0 {
		t.Fatal("no writebacks reached the backend despite conflict misses")
	}
	// Every value must still be readable, whether cached or in memory.
	for i, a := range addrs {
		got := make([]byte, 1)
		h.Read(0, a, got)
		if got[0] != byte(i+1) {
			t.Errorf("addr %#x = %d, want %d", a, got[0], i+1)
		}
	}
}

func TestFlushDirtyWritesAllAndCleans(t *testing.T) {
	b := newFlatBackend()
	h := Default(b)
	h.Write(0, 0, []byte{7})
	h.Write(0, 4096, []byte{8})
	if h.DirtyBlocks() == 0 {
		t.Fatal("expected dirty blocks before flush")
	}
	_, n := h.FlushDirty(0, 1)
	if n != 2 {
		t.Errorf("flushed %d blocks, want 2", n)
	}
	if h.DirtyBlocks() != 0 {
		t.Error("dirty blocks remain after flush")
	}
	got := make([]byte, 1)
	b.store.Read(0, got)
	if got[0] != 7 {
		t.Error("flush did not write block 0 to backend")
	}
	b.store.Read(4096, got)
	if got[0] != 8 {
		t.Error("flush did not write block 4096 to backend")
	}
	// Lines must remain valid (not invalidated) to preserve locality.
	b.reads = 0
	h.Read(0, 0, got)
	if b.reads != 0 {
		t.Error("flushed block was invalidated; expected it to stay cached")
	}
}

func TestFlushIsIdempotent(t *testing.T) {
	b := newFlatBackend()
	h := Default(b)
	h.Write(0, 0, []byte{9})
	h.FlushDirty(0, 1)
	w := b.writes
	_, n := h.FlushDirty(0, 1)
	if n != 0 || b.writes != w {
		t.Error("second flush rewrote clean blocks")
	}
}

func TestInvalidateAllDropsContents(t *testing.T) {
	b := newFlatBackend()
	h := Default(b)
	h.Write(0, 0, []byte{5})
	h.InvalidateAll()
	got := make([]byte, 1)
	h.Read(0, 0, got)
	if got[0] != 0 {
		t.Errorf("read %d after invalidate, want 0 (dirty data lost, backend has zero)", got[0])
	}
}

func TestNoCacheLevelsPassThrough(t *testing.T) {
	b := newFlatBackend()
	h := NewHierarchy(b)
	h.Write(0, 10, []byte{3})
	got := make([]byte, 1)
	h.Read(0, 10, got)
	if got[0] != 3 {
		t.Error("pass-through hierarchy lost data")
	}
	if b.writes == 0 {
		t.Error("pass-through write never reached backend")
	}
}

func TestCrossBlockAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on block-crossing access")
		}
	}()
	h := Default(newFlatBackend())
	h.Read(0, 60, make([]byte, 8)) // crosses 64B boundary
}

func TestLRUReplacement(t *testing.T) {
	b := newFlatBackend()
	h := NewHierarchy(b, LevelSpec{Name: "L1", SizeB: 128, Ways: 2, HitLat: 1})
	// One set, two ways. Touch A, B, then A again; C must evict B.
	A, B, C := uint64(0), uint64(64), uint64(128)
	buf := make([]byte, 1)
	h.Read(0, A, buf)
	h.Read(0, B, buf)
	h.Read(0, A, buf)
	h.Read(0, C, buf) // evicts B (LRU)
	b.reads = 0
	h.Read(0, A, buf)
	if b.reads != 0 {
		t.Error("A was evicted; LRU should have evicted B")
	}
	h.Read(0, B, buf)
	if b.reads != 1 {
		t.Error("B should have been evicted and re-fetched")
	}
}

func TestStatsAccounting(t *testing.T) {
	b := newFlatBackend()
	h := NewHierarchy(b, L1Spec())
	buf := make([]byte, 1)
	h.Read(0, 0, buf)
	h.Read(0, 0, buf)
	st := h.Stats()
	if st[0].Name != "L1" || st[0].Misses != 1 || st[0].Hits != 1 {
		t.Errorf("stats = %+v", st[0])
	}
}

// Property: for any sequence of single-byte writes followed by reads, the
// cache hierarchy returns exactly what a flat shadow map predicts, and after
// FlushDirty the backend holds the same contents.
func TestCacheCoherenceQuick(t *testing.T) {
	type op struct {
		Addr  uint16
		Val   byte
		Write bool
	}
	prop := func(ops []op) bool {
		b := newFlatBackend()
		h := tinyHierarchy(b)
		shadow := make(map[uint64]byte)
		now := mem.Cycle(0)
		for _, o := range ops {
			addr := uint64(o.Addr)
			if o.Write {
				now = h.Write(now, addr, []byte{o.Val})
				shadow[addr] = o.Val
			} else {
				buf := make([]byte, 1)
				now = h.Read(now, addr, buf)
				if buf[0] != shadow[addr] {
					return false
				}
			}
		}
		h.FlushDirty(now, 1)
		for addr, want := range shadow {
			got := make([]byte, 1)
			b.store.Read(addr, got)
			if got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDefaultSpecsMatchPaper(t *testing.T) {
	if s := L1Spec(); s.SizeB != 32<<10 || s.Ways != 8 || s.HitLat != 4 {
		t.Errorf("L1 spec %+v does not match Table 2", s)
	}
	if s := L2Spec(); s.SizeB != 256<<10 || s.Ways != 8 || s.HitLat != 12 {
		t.Errorf("L2 spec %+v does not match Table 2", s)
	}
	if s := L3Spec(); s.SizeB != 2<<20 || s.Ways != 16 || s.HitLat != 28 {
		t.Errorf("L3 spec %+v does not match Table 2", s)
	}
}

// Regression: after a flush, a stale lower-level copy must not be served
// once the upper-level (newest) copy is silently evicted.
func TestFlushSyncsLowerLevelCopies(t *testing.T) {
	b := newFlatBackend()
	h := NewHierarchy(b,
		LevelSpec{Name: "L1", SizeB: 128, Ways: 2, HitLat: 1}, // one set, 2 ways
		LevelSpec{Name: "L2", SizeB: 1024, Ways: 4, HitLat: 2},
	)
	A := uint64(0)
	buf := make([]byte, 1)
	// Fill A into L1+L2 (clean), then dirty only the L1 copy.
	h.Read(0, A, buf)
	h.Write(0, A, []byte{42}) // L1 newest; L2 copy stale
	// Flush: backend gets 42; the L2 copy must be refreshed too.
	h.FlushDirty(0, 1)
	// Evict A from L1 via conflicts (one set, two ways).
	h.Read(0, 64, buf)
	h.Read(0, 128, buf)
	h.Read(0, 192, buf)
	// Read A again: may hit the L2 copy — it must hold 42.
	h.Read(0, A, buf)
	if buf[0] != 42 {
		t.Fatalf("read %d after flush+eviction, want 42 (stale lower-level copy served)", buf[0])
	}
}

// TestHierarchyAllocs guards what a level costs: building the paper's
// hierarchy takes a handful of allocations holding only tags, dirty bits,
// recency words and data slots; driving it over a 64 KiB footprint pages in
// line data for at most that footprint per level, however often a crash
// invalidates it, since re-installs reuse their rows; and a crash's
// invalidate and a checkpoint's flush take nothing.
func TestHierarchyAllocs(t *testing.T) {
	b := newFlatBackend()
	if n := testing.AllocsPerRun(10, func() { Default(b) }); n > 32 {
		t.Errorf("Default allocates %.0f times, want <= 32", n)
	}
	built := bytesPerRun(10, func() { Default(b) })
	if built > 512<<10 {
		t.Errorf("Default allocates %d bytes, want <= %d", built, 512<<10)
	}
	var buf [mem.BlockSize]byte
	now := mem.Cycle(0)
	drive := func() {
		h := Default(b)
		for pass := 0; pass < 4; pass++ {
			for a := uint64(0); a < 64<<10; a += mem.BlockSize {
				now = h.Write(now, a, buf[:])
			}
			now, _ = h.FlushDirty(now, 4)
			h.InvalidateAll()
		}
	}
	if n := bytesPerRun(10, drive) - built; n > 256<<10 {
		t.Errorf("a 64 KiB footprint pages in %d bytes, want <= %d", n, 256<<10)
	}

	h := Default(b)
	for a := uint64(0); a < 4<<20; a += 4 * mem.BlockSize {
		now = h.Write(now, a, buf[:])
	}
	if n := testing.AllocsPerRun(10, func() { now, _ = h.FlushDirty(now, 4) }); n != 0 {
		t.Errorf("FlushDirty allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, h.InvalidateAll); n != 0 {
		t.Errorf("InvalidateAll allocates %.0f times, want 0", n)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// allocated by one call of f, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNewHierarchyRejectsBadGeometry: a level's set index is a mask and
// its recency word holds one nibble per way, so the set and way counts
// must be powers of two, ways at most 16, and the size exactly
// sets*ways*64.
func TestNewHierarchyRejectsBadGeometry(t *testing.T) {
	for _, s := range []LevelSpec{
		{Name: "no ways", SizeB: 1024, Ways: 0},
		{Name: "3 ways", SizeB: 3 * 64, Ways: 3},
		{Name: "32 ways", SizeB: 32 * 64, Ways: 32},
		{Name: "3 sets", SizeB: 3 * 2 * 64, Ways: 2},
		{Name: "no sets", SizeB: 64, Ways: 2},
		{Name: "ragged", SizeB: 2*2*64 + 64, Ways: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHierarchy accepted %+v", s)
				}
			}()
			NewHierarchy(newFlatBackend(), s)
		}()
	}
	for _, s := range []LevelSpec{L1Spec(), L2Spec(), L3Spec(),
		{Name: "direct", SizeB: 64, Ways: 1}, {Name: "wide", SizeB: 16 * 64, Ways: 16}} {
		NewHierarchy(newFlatBackend(), s)
	}
}

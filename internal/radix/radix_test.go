package radix

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// TestDifferentialVsMap drives a Table and a plain map with the same random
// operation stream and asserts they agree at every step — presence, value,
// length, and ordered key set.
func TestDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint64]
	shadow := map[uint64]uint64{}

	// Key distribution mirrors the simulator: mostly dense-near-zero with
	// occasional far keys (bump-allocated tail), and bursts of repeated
	// keys (the MRU-memo case).
	randKey := func() uint64 {
		switch rng.Intn(10) {
		case 0:
			return rng.Uint64() % (1 << 40) // far tail
		case 1, 2:
			return rng.Uint64() % 8 // leaf 0, heavy reuse
		default:
			return rng.Uint64() % 4096
		}
	}

	var last uint64
	for i := 0; i < 200_000; i++ {
		k := randKey()
		if rng.Intn(4) == 0 {
			k = last // repeat the previous key: exercises the memo
		}
		last = k
		switch rng.Intn(10) {
		case 0, 1:
			tab.Delete(k)
			delete(shadow, k)
		case 2:
			*tab.Ref(k)++
			shadow[k]++
		default:
			v := rng.Uint64()
			tab.Set(k, v)
			shadow[k] = v
		}
		got, ok := tab.Get(k)
		want, wok := shadow[k]
		if ok != wok || got != want {
			t.Fatalf("step %d: Get(%d) = %d,%v; map has %d,%v", i, k, got, ok, want, wok)
		}
		if tab.Len() != len(shadow) {
			t.Fatalf("step %d: Len() = %d, map has %d", i, tab.Len(), len(shadow))
		}
	}

	wantKeys := make([]uint64, 0, len(shadow))
	for k := range shadow {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	gotKeys := tab.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("Keys() returned %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, gotKeys[i], wantKeys[i])
		}
		if v, ok := tab.Get(gotKeys[i]); !ok || v != shadow[gotKeys[i]] {
			t.Fatalf("Get(%d) = %d,%v, want %d", gotKeys[i], v, ok, shadow[gotKeys[i]])
		}
	}
}

func TestZeroValuesAreStorable(t *testing.T) {
	var tab Table[uint64]
	if _, ok := tab.Get(7); ok {
		t.Fatal("empty table claims key 7")
	}
	tab.Set(7, 0) // value 0 must be distinguishable from absence
	if v, ok := tab.Get(7); !ok || v != 0 {
		t.Fatalf("Get(7) = %d,%v; want 0,true", v, ok)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tab.Len())
	}
	tab.Delete(7)
	if _, ok := tab.Get(7); ok || tab.Len() != 0 {
		t.Fatal("Delete(7) did not remove the key")
	}
	tab.Delete(7) // deleting an absent key is a no-op
	if tab.Len() != 0 {
		t.Fatalf("Len() = %d after double delete", tab.Len())
	}
}

func TestScanOrderAndEarlyExit(t *testing.T) {
	var tab Table[int]
	keys := []uint64{0, 1, 511, 512, 513, 1 << 20, 1<<20 + 1, 1 << 30}
	for i := len(keys) - 1; i >= 0; i-- { // insert in descending order
		tab.Set(keys[i], int(keys[i]))
	}
	var got []uint64
	tab.Scan(func(k uint64, v int) bool {
		if int(k) != v {
			t.Fatalf("Scan visited k=%d with v=%d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("Scan visited %d keys, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("Scan order[%d] = %d, want %d", i, got[i], k)
		}
	}
	n := 0
	tab.Scan(func(uint64, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early-exit Scan visited %d keys, want 3", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	var tab Table[[]byte]
	tab.Set(3, []byte{1, 2, 3})
	tab.Set(600, []byte{4})
	c := tab.Clone(func(b []byte) []byte { return append([]byte(nil), b...) })
	v, _ := c.Get(3)
	v[0] = 99
	orig, _ := tab.Get(3)
	if orig[0] != 1 {
		t.Fatal("Clone with dup shared value storage")
	}
	if c.Len() != 2 {
		t.Fatalf("clone Len() = %d, want 2", c.Len())
	}
	// Mutating the clone's structure must not affect the source.
	c.Delete(600)
	if _, ok := tab.Get(600); !ok {
		t.Fatal("clone Delete leaked into source")
	}
}

func TestReset(t *testing.T) {
	var tab Table[int]
	for i := uint64(0); i < 1000; i++ {
		tab.Set(i*37, int(i))
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len() = %d after Reset", tab.Len())
	}
	if _, ok := tab.Get(0); ok {
		t.Fatal("Reset table still has key 0")
	}
	tab.Set(5, 5) // usable after reset
	if v, ok := tab.Get(5); !ok || v != 5 {
		t.Fatalf("Get(5) after Reset = %d,%v", v, ok)
	}
}

func TestClearRetainsStructure(t *testing.T) {
	var tab Table[int]
	for i := uint64(0); i < 1000; i++ {
		tab.Set(i*37, int(i)+1)
	}
	tab.Clear()
	if tab.Len() != 0 {
		t.Fatalf("Len() = %d after Clear", tab.Len())
	}
	if _, ok := tab.Get(37); ok {
		t.Fatal("Clear table still has key 37")
	}
	tab.Scan(func(uint64, int) bool {
		t.Fatal("Scan visited an entry after Clear")
		return false
	})

	// Refilling the same key range reuses the retained node structure:
	// no allocations in steady state (this is why the epoch-sealed
	// page-store counter table is recycled via Clear, not Reset).
	allocs := testing.AllocsPerRun(20, func() {
		for i := uint64(0); i < 1000; i++ {
			tab.Set(i*37, int(i)+1)
		}
		tab.Clear()
	})
	if allocs != 0 {
		t.Fatalf("refill after Clear allocated %.1f times, want 0", allocs)
	}

	// Zero values set after Clear are still distinguishable from absent.
	tab.Set(74, 0)
	if v, ok := tab.Get(74); !ok || v != 0 {
		t.Fatalf("Get(74) after Clear = %d,%v; want 0,true", v, ok)
	}
}

// TestTableCostsWhatItTouches pins the cost model: a mid grows with the
// keys it holds, so a table whose keys fit in one leaf costs that leaf
// and a few words of directory, and a far key costs one root slot per
// 2^20 keys below it, not a node per 2^(leafBits+midBits) of a smaller mid.
func TestTableCostsWhatItTouches(t *testing.T) {
	leafBytes := uint64(unsafe.Sizeof(leaf[uint64]{}))
	// 1 KiB covers the root and mid slices and the allocator rounding the
	// leaf up to its size class; a fixed 2,048-pointer mid is 16 KiB.
	if got := bytesPerRun(3, func() {
		var tab Table[uint64]
		for k := uint64(0); k < leafSize; k++ {
			tab.Set(k, k)
		}
	}); got > leafBytes+1024 {
		t.Errorf("keys 0-%d allocated %d bytes, want at most one %d-byte leaf plus 1 KiB", leafSize-1, got, leafBytes)
	}
	if got := bytesPerRun(1, func() {
		var tab Table[uint64]
		tab.Set(1<<40, 1)
	}); got > 32<<20 {
		t.Errorf("one key at 2^40 allocated %d bytes, want under 32 MiB", got)
	}
}

// TestCloneSkipsEmptyLeaves: Clear and Delete keep emptied leaves for
// reuse, but a clone copies only the leaves that hold keys.
func TestCloneSkipsEmptyLeaves(t *testing.T) {
	var tab Table[uint64]
	for k := uint64(0); k < 4*leafSize; k++ {
		tab.Set(k, k+1)
	}
	tab.Clear()
	leafBytes := uint64(unsafe.Sizeof(leaf[uint64]{}))
	if got := bytesPerRun(3, func() { tab.Clone(nil) }); got >= leafBytes {
		t.Errorf("cloning a cleared table allocated %d bytes, want less than one %d-byte leaf", got, leafBytes)
	}

	tab.Set(3, 4)
	tab.Set(2*leafSize+5, 6)
	tab.Delete(3)
	c := tab.Clone(nil)
	if got := c.Keys(); len(got) != 1 || got[0] != 2*leafSize+5 {
		t.Fatalf("clone holds keys %v, want [%d]", got, 2*leafSize+5)
	}
	if v, ok := c.Get(2*leafSize + 5); !ok || v != 6 {
		t.Fatalf("clone Get = %d,%v; want 6,true", v, ok)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("clone holds a deleted key")
	}
	c.Set(leafSize+1, 9) // a clone grows like any table
	if v, ok := c.Get(leafSize + 1); !ok || v != 9 || c.Len() != 2 {
		t.Fatalf("clone after Set: Get = %d,%v, Len = %d", v, ok, c.Len())
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after a warm-up call.
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

func BenchmarkTableGetHit(b *testing.B) {
	var tab Table[uint64]
	for i := uint64(0); i < 1<<16; i++ {
		tab.Set(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := tab.Get(uint64(i) & (1<<16 - 1))
		sink += v
	}
	_ = sink
}

func BenchmarkMapGetHit(b *testing.B) {
	m := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		m[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m[uint64(i)&(1<<16-1)]
	}
	_ = sink
}

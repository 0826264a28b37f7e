package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestStorageReadWriteRoundTrip(t *testing.T) {
	s := NewStorage()
	data := []byte("hello, persistent world")
	s.Write(100, data)
	got := make([]byte, len(data))
	s.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip failed: got %q want %q", got, data)
	}
}

func TestStorageZeroFill(t *testing.T) {
	s := NewStorage()
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = 0xff
	}
	s.Read(1<<30, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("untouched byte %d = %#x, want 0", i, b)
		}
	}
}

func TestStorageCrossChunkWrite(t *testing.T) {
	s := NewStorage()
	data := make([]byte, 3*storageChunk)
	for i := range data {
		data[i] = byte(i)
	}
	// Start mid-chunk so the write spans four chunks.
	start := uint64(storageChunk / 2)
	s.Write(start, data)
	got := make([]byte, len(data))
	s.Read(start, got)
	if !bytes.Equal(got, data) {
		t.Error("cross-chunk round trip failed")
	}
}

func TestStorageOverwrite(t *testing.T) {
	s := NewStorage()
	s.Write(0, []byte{1, 2, 3, 4})
	s.Write(2, []byte{9, 9})
	got := make([]byte, 4)
	s.Read(0, got)
	want := []byte{1, 2, 9, 9}
	if !bytes.Equal(got, want) {
		t.Errorf("overwrite: got %v want %v", got, want)
	}
}

func TestStorageClear(t *testing.T) {
	s := NewStorage()
	s.Write(0, []byte{1})
	s.Clear()
	got := make([]byte, 1)
	s.Read(0, got)
	if got[0] != 0 {
		t.Error("Clear did not wipe contents")
	}
	if s.FootprintBytes() != 0 {
		t.Error("Clear did not reset footprint")
	}
}

func TestStorageCloneIsDeep(t *testing.T) {
	s := NewStorage()
	s.Write(10, []byte{42})
	c := s.Clone()
	s.Write(10, []byte{7})
	got := make([]byte, 1)
	c.Read(10, got)
	if got[0] != 42 {
		t.Error("Clone shares backing memory with original")
	}
}

func TestStorageEqual(t *testing.T) {
	a, b := NewStorage(), NewStorage()
	if !a.Equal(b) {
		t.Error("empty storages should be equal")
	}
	a.Write(5, []byte{1})
	if a.Equal(b) || b.Equal(a) {
		t.Error("differing storages reported equal")
	}
	b.Write(5, []byte{1})
	if !a.Equal(b) {
		t.Error("identical storages reported unequal")
	}
	// A touched-but-zero chunk must compare equal to an untouched one.
	a.Write(1<<20, []byte{0, 0, 0})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("zero-filled chunk should equal untouched chunk")
	}
}

func TestStorageFootprint(t *testing.T) {
	s := NewStorage()
	s.Write(0, []byte{1})
	s.Write(storageChunk*5, []byte{1})
	if got := s.FootprintBytes(); got != 2*storageChunk {
		t.Errorf("FootprintBytes = %d, want %d", got, 2*storageChunk)
	}
}

func TestStorageQuickRoundTrip(t *testing.T) {
	prop := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64*1024 {
			data = data[:64*1024]
		}
		s := NewStorage()
		s.Write(uint64(addr), data)
		got := make([]byte, len(data))
		s.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStorageCostsWhatItTouches: storage written across a 256 GiB span
// costs the chunks it touches, not the span. One block at each of 1,024
// addresses spread evenly over the span and 1,024 contiguous chunks both
// touch 4 MiB; the scattered layout also pays one radix leaf of chunk
// pointers per chunk and its share of the mids.
func TestStorageCostsWhatItTouches(t *testing.T) {
	const span, n = 256 << 30, 1024
	var block [BlockSize]byte
	for _, c := range []struct {
		name  string
		addr  func(i uint64) uint64
		bound float64 // allocated bytes per touched byte
	}{
		{"scattered", func(i uint64) uint64 { return i * (span / n) }, 3.5},
		{"contiguous", func(i uint64) uint64 { return i * storageChunk }, 1.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s *Storage
			alloc := bytesPerRun(3, func() {
				s = NewStorage()
				for i := uint64(0); i < n; i++ {
					s.Write(c.addr(i), block[:])
				}
			})
			touched := uint64(n * storageChunk)
			if got := s.FootprintBytes(); got != touched {
				t.Errorf("FootprintBytes = %d, want %d", got, touched)
			}
			t.Logf("allocated %d bytes for %d touched (%.2fx)", alloc, touched, float64(alloc)/float64(touched))
			if limit := c.bound * float64(touched); float64(alloc) > limit {
				t.Errorf("allocated %d bytes for %d touched, over %.1fx", alloc, touched, c.bound)
			}
		})
	}
}

// TestStorageClearKeepsChunks: Clear empties the storage but keeps its
// nodes and chunks, so rewriting the chunks it held allocates nothing, and
// the bytes a rewrite does not cover read as zero.
func TestStorageClearKeepsChunks(t *testing.T) {
	bases := []uint64{0, 1, 2, 7, 1 << 11, 1 << 24} // chunk indices, across mids
	s := NewStorage()
	full := bytes.Repeat([]byte{0xa5}, storageChunk)
	for _, b := range bases {
		s.Write(b*storageChunk, full)
	}
	s.Clear()
	if got := s.FootprintBytes(); got != 0 {
		t.Fatalf("FootprintBytes after Clear = %d, want 0", got)
	}
	block := bytes.Repeat([]byte{0x5a}, BlockSize)
	rewrite := func() {
		for _, b := range bases {
			s.Write(b*storageChunk+BlockSize, block)
		}
	}
	if got := bytesPerRun(3, func() { rewrite(); s.Clear() }); got != 0 {
		t.Errorf("rewriting %d cleared chunks allocated %d bytes, want 0", len(bases), got)
	}
	rewrite()
	if got, want := s.FootprintBytes(), uint64(len(bases))*storageChunk; got != want {
		t.Errorf("FootprintBytes after rewrite = %d, want %d", got, want)
	}
	want := make([]byte, storageChunk)
	copy(want[BlockSize:], block)
	got := make([]byte, storageChunk)
	for _, b := range bases {
		s.Read(b*storageChunk, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d after Clear and a one-block rewrite holds stale bytes", b)
		}
	}
}

// TestReleasedChunksComeBackZeroed: a chunk that a released device's
// store filled with 0xFF serves another storage's first write, zeroed:
// after that write of one byte, every other byte of the chunk reads zero.
// Integrity mode takes chunks the same way.
func TestReleasedChunksComeBackZeroed(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		d := NewDevice(NVMSpec())
		if integrity {
			d.Storage().EnableIntegrity()
		}
		d.Poke(0, bytes.Repeat([]byte{0xFF}, storageChunk))
		released, _ := d.Storage().chunks.Get(0)
		d.Release()
		d.Release() // a second release does nothing

		s := NewStorage()
		if integrity {
			s.EnableIntegrity()
		}
		s.Write(storageChunk+5, []byte{0x42})
		c, _ := s.chunks.Get(1)
		if c != released {
			t.Errorf("integrity=%v: the first write allocated a chunk instead of taking the released one", integrity)
		}
		want := make([]byte, storageChunk)
		want[5] = 0x42
		got := make([]byte, storageChunk)
		s.Read(storageChunk, got)
		if !bytes.Equal(got, want) {
			t.Errorf("integrity=%v: a reused chunk holds %d stale bytes", integrity, storageChunk-bytes.Count(got, []byte{0})-1)
		}
		if fails := s.VerifyRange(0, 2*storageChunk); len(fails) != 0 {
			t.Errorf("integrity=%v: a reused chunk fails its checksums at %#x", integrity, fails)
		}
	}
}

// TestFreeListAcrossGoroutines: storages on several goroutines at once
// take chunks from the one free list, clear them back into it and release
// them, and each reads exactly what it wrote over zeros. Run it with -race.
func TestFreeListAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := make([]byte, storageChunk)
			got := make([]byte, storageChunk)
			for life := 0; life < 50; life++ {
				d := NewDevice(NVMSpec())
				for round := 0; round < 2; round++ { // the second round refills cleared chunks
					for c := uint64(0); c < 8; c++ {
						d.Poke(c*storageChunk+uint64(g), []byte{byte(g + 1)})
					}
					clear(want)
					want[g] = byte(g + 1)
					for c := uint64(0); c < 8; c++ {
						d.Peek(c*storageChunk, got)
						if !bytes.Equal(got, want) {
							t.Errorf("goroutine %d, life %d: chunk %d holds %d stale bytes", g, life, c, storageChunk-bytes.Count(got, []byte{0})-1)
							return
						}
					}
					d.Storage().Clear()
				}
				d.Release()
			}
		}()
	}
	wg.Wait()
}

// TestFreeListBounded: a storage cleared with more chunks than the free
// list may hold fills the list to maxFreeChunks and leaves the rest to the
// collector.
func TestFreeListBounded(t *testing.T) {
	t.Cleanup(func() {
		freeMu.Lock()
		freeChunks = nil
		freeMu.Unlock()
	})
	s := NewStorage()
	for i := uint64(0); i < maxFreeChunks+8; i++ {
		s.Write(i*storageChunk, []byte{1})
	}
	s.Clear()
	freeMu.Lock()
	n := len(freeChunks)
	freeMu.Unlock()
	if n != maxFreeChunks {
		t.Errorf("free list holds %d chunks after a Clear of %d, want %d", n, maxFreeChunks+8, maxFreeChunks)
	}
}

// TestReleasedDevicePanics: a released device has no store and no banks,
// so a timed or untimed access panics instead of reaching chunks another
// storage now owns.
func TestReleasedDevicePanics(t *testing.T) {
	buf := make([]byte, BlockSize)
	for _, tc := range []struct {
		name string
		use  func(d *Device)
	}{
		{"Read", func(d *Device) { d.Read(0, 0, buf) }},
		{"WriteAt", func(d *Device) { d.WriteAt(0, 0, PageSize, buf, SrcCPU) }},
		{"Peek", func(d *Device) { d.Peek(0, buf) }},
	} {
		d := NewDevice(NVMSpec())
		d.Write(0, 0, buf, SrcCPU)
		d.Flush(0)
		d.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released device did not panic", tc.name)
				}
			}()
			tc.use(d)
		}()
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

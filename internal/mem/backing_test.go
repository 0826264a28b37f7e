package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newMmapT(t *testing.T, path string, capBytes uint64) *Storage {
	t.Helper()
	s, err := NewMmapStorage(path, capBytes)
	if err != nil {
		t.Fatalf("NewMmapStorage: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMmapStorageReadWrite exercises the mmap backend through the same
// access patterns the heap backend sees: single-chunk fast paths, ranges
// crossing chunk boundaries, zero reads of untouched space.
func TestMmapStorageReadWrite(t *testing.T) {
	s := newMmapT(t, "", 1<<20)
	if got := s.Backend(); got != BackendMmap {
		t.Fatalf("Backend() = %v, want mmap", got)
	}

	data := make([]byte, 3*storageChunk)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Straddle chunk boundaries on purpose.
	s.Write(storageChunk/2, data)

	got := make([]byte, len(data))
	s.Read(storageChunk/2, got)
	if !bytesEqual(got, data) {
		t.Fatal("read-back mismatch across chunk boundaries")
	}

	// Untouched space reads as zero, exactly like the heap backend.
	zero := make([]byte, 2*storageChunk)
	s.Read(512<<10, zero)
	for i, b := range zero {
		if b != 0 {
			t.Fatalf("untouched byte %d = %d, want 0", i, b)
		}
	}

	// Footprint counts touched chunks only (write covered chunks 0..3).
	if fp := s.FootprintBytes(); fp != 4*storageChunk {
		t.Fatalf("FootprintBytes = %d, want %d", fp, 4*storageChunk)
	}

	s.Clear()
	if fp := s.FootprintBytes(); fp != 0 {
		t.Fatalf("FootprintBytes after Clear = %d, want 0", fp)
	}
	s.Read(storageChunk/2, got)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d after Clear, want 0", i, b)
		}
	}
}

// TestMmapTempImageRemovedOnClose checks auto-created images are
// self-cleaning while explicit paths survive.
func TestMmapTempImageRemovedOnClose(t *testing.T) {
	s, err := NewMmapStorage("", 1<<20)
	if err != nil {
		t.Fatalf("NewMmapStorage: %v", err)
	}
	path := s.ImagePath()
	if path == "" {
		t.Fatal("temp image has no path")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("temp image %s survived Close (stat err: %v)", path, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	kept := filepath.Join(t.TempDir(), "nvm.img")
	s2 := newMmapT(t, kept, 1<<20)
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(kept); err != nil {
		t.Fatalf("explicit image %s did not survive Close: %v", kept, err)
	}
}

// TestMmapOpenRoundTrip writes through one storage, syncs and closes it,
// reopens the image, and checks the contents and footprint survived.
func TestMmapOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.img")
	s := newMmapT(t, path, 2<<20)
	ref := NewStorage() // heap shadow of the same writes
	for i := 0; i < 64; i++ {
		addr := uint64(i) * 17 * 512 % (1 << 20)
		data := []byte{byte(i), byte(i * 3), byte(i * 5)}
		s.Write(addr, data)
		ref.Write(addr, data)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	wantFP := s.FootprintBytes()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := OpenMmapStorage(path)
	if err != nil {
		t.Fatalf("OpenMmapStorage: %v", err)
	}
	defer r.Close()
	if fp := r.FootprintBytes(); fp != wantFP {
		t.Fatalf("reopened footprint = %d, want %d", fp, wantFP)
	}
	if !r.Equal(ref) || !ref.Equal(r) {
		t.Fatal("reopened image does not match the heap shadow")
	}
}

// TestMmapSnapshot writes a standalone sparse copy and checks it opens to
// identical contents while the source keeps evolving independently.
func TestMmapSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := newMmapT(t, "", 1<<20)
	s.Write(0, []byte("alpha"))
	s.Write(300<<10, []byte("omega"))

	snap := filepath.Join(dir, "snap.img")
	if err := s.Snapshot(snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Write(0, []byte("MUTATED")) // must not affect the snapshot

	r, err := OpenMmapStorage(snap)
	if err != nil {
		t.Fatalf("OpenMmapStorage(snapshot): %v", err)
	}
	defer r.Close()
	got := make([]byte, 5)
	r.Read(0, got)
	if string(got) != "alpha" {
		t.Fatalf("snapshot byte 0 = %q, want alpha", got)
	}
	r.Read(300<<10, got)
	if string(got) != "omega" {
		t.Fatalf("snapshot high chunk = %q, want omega", got)
	}

	// Heap backend has no image.
	if err := NewStorage().Snapshot(filepath.Join(dir, "x.img")); err == nil {
		t.Fatal("heap Snapshot succeeded, want error")
	}
}

// TestMmapOpenRejectsBadImages checks header validation: wrong magic,
// wrong version, wrong chunk size, truncated files and inconsistent
// capacities are all refused with a descriptive error.
func TestMmapOpenRejectsBadImages(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) string {
		path := filepath.Join(dir, name)
		s := newMmapT(t, path, 1<<20)
		s.Write(0, []byte("payload"))
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return path
	}
	patch := func(path string, off int64, b []byte) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		//thynvm:allow-nodefer short helper closes on every path below
		if _, err := f.WriteAt(b, off); err != nil {
			f.Close()
			t.Fatalf("patch %s: %v", path, err)
		}
		f.Close()
	}
	wantErr := func(path, frag string) {
		t.Helper()
		s, err := OpenMmapStorage(path)
		if err == nil {
			s.Close()
			t.Fatalf("OpenMmapStorage(%s) succeeded, want error containing %q", path, frag)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("OpenMmapStorage(%s) error %q, want it to contain %q", path, err, frag)
		}
		if !errors.Is(err, ErrBadImage) {
			t.Fatalf("OpenMmapStorage(%s) error %q does not wrap ErrBadImage", path, err)
		}
	}

	magic := mk("magic.img")
	patch(magic, headOffMagic, []byte{0xde, 0xad})
	wantErr(magic, "bad image magic")

	version := mk("version.img")
	patch(version, headOffVersion, []byte{99})
	wantErr(version, "unsupported image version")

	chunk := mk("chunk.img")
	patch(chunk, headOffChunk, []byte{0x01, 0x20}) // 8193: not our chunk size
	wantErr(chunk, "chunk size")

	capacity := mk("cap.img")
	patch(capacity, headOffCap, []byte{0xff, 0xff, 0xff}) // not a chunk multiple
	wantErr(capacity, "implausible image capacity")

	huge := mk("huge.img")
	// A chunk-aligned capacity beyond any plausible image: must be rejected
	// before sizes are derived from it (overflow safety).
	patch(huge, headOffCap, []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	wantErr(huge, "implausible image capacity")

	trunc := mk("trunc.img")
	st, err := os.Stat(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(trunc, st.Size()-storageChunk); err != nil {
		t.Fatal(err)
	}
	wantErr(trunc, "image truncated")

	grown := mk("grown.img")
	if err := os.Truncate(grown, st.Size()+storageChunk); err != nil {
		t.Fatal(err)
	}
	wantErr(grown, "inconsistent with file size")

	short := filepath.Join(dir, "short.img")
	if err := os.WriteFile(short, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr(short, "too short")
}

// FuzzMmapHead feeds arbitrary image heads and file sizes to the head
// decoder OpenMmapStorage runs before it maps anything. It must never
// panic, every rejection must wrap ErrBadImage, and every accepted head
// must re-encode to the same fields.
func FuzzMmapHead(f *testing.F) {
	const capBytes = 1 << 20
	size := int64(mmapHead + mmapMetaBytes(capBytes) + capBytes)
	valid := make([]byte, headLen)
	putMmapHead(valid, capBytes, 7)
	patched := func(off int, b ...byte) []byte {
		h := append([]byte(nil), valid...)
		copy(h[off:], b)
		return h
	}
	f.Add(valid, size)
	f.Add(patched(headOffMagic, 0xde, 0xad), size)
	f.Add(patched(headOffVersion, 99), size)
	f.Add(patched(headOffChunk, 0x01, 0x20), size)
	f.Add(patched(headOffCap, 0xff, 0xff, 0xff), size)
	f.Add(patched(headOffCap, 0, 0, 0, 0, 0, 0, 0, 0x80), size)
	f.Add(valid, size-storageChunk)
	f.Add(valid, size+storageChunk)
	f.Add([]byte("tiny"), int64(4))
	f.Fuzz(func(t *testing.T, head []byte, size int64) {
		capB, seq, err := parseMmapHead(head, size)
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("rejection %q does not wrap ErrBadImage", err)
			}
			return
		}
		re := make([]byte, headLen)
		putMmapHead(re, capB, seq)
		binary.LittleEndian.PutUint64(re[headOffTouched:], binary.LittleEndian.Uint64(head[headOffTouched:]))
		if !bytes.Equal(re, head[:headLen]) {
			t.Fatalf("accepted head %x re-encodes as %x", head[:headLen], re)
		}
		if c2, s2, err := parseMmapHead(re, size); err != nil || c2 != capB || s2 != seq {
			t.Fatalf("re-encoded head parses as (%d, %d, %v), want (%d, %d, nil)", c2, s2, err, capB, seq)
		}
	})
}

// TestCrossBackendEqual proves Equal and Clone are backend-agnostic: the
// same writes through heap and mmap storages compare equal in both
// directions, mismatches are detected, and clones of an mmap storage are
// plain heap values.
func TestCrossBackendEqual(t *testing.T) {
	h := NewStorage()
	m := newMmapT(t, "", 1<<20)
	for i := 0; i < 100; i++ {
		addr := uint64(i) * 13 * 256 % (900 << 10)
		data := []byte{byte(i), byte(i >> 3), 0xAA}
		h.Write(addr, data)
		m.Write(addr, data)
	}
	if !h.Equal(m) || !m.Equal(h) {
		t.Fatal("identical writes, backends compare unequal")
	}

	c := m.Clone()
	if c.Backend() != BackendHeap {
		t.Fatalf("Clone backend = %v, want heap", c.Backend())
	}
	if !c.Equal(m) || !c.Equal(h) {
		t.Fatal("clone of mmap storage differs from its source")
	}

	// An all-zero write touches a chunk without changing logical content:
	// still equal (zero chunks match untouched space).
	m.Write(990<<10, make([]byte, 64))
	if !h.Equal(m) || !m.Equal(h) {
		t.Fatal("zero-filled touched chunk broke equality")
	}

	m.Write(990<<10, []byte{1})
	if h.Equal(m) || m.Equal(h) {
		t.Fatal("differing contents compare equal")
	}
}

// TestMmapDeviceEndToEnd drives a Device over an mmap-backed store through
// timed writes, settles and a snapshot, checking parity with a heap-backed
// twin fed the identical sequence.
func TestMmapDeviceEndToEnd(t *testing.T) {
	spec := NVMSpec()
	store, err := NewBackedStorage(StorageSpec{Backend: BackendMmap, Capacity: 1 << 20})
	if err != nil {
		t.Fatalf("NewBackedStorage: %v", err)
	}
	md := NewDeviceStorage(spec, store)
	hd := NewDevice(spec)
	defer store.Close()

	now := Cycle(0)
	var data [BlockSize]byte
	for i := 0; i < 200; i++ {
		for j := range data {
			data[j] = byte(i + j)
		}
		addr := uint64(i%37) * BlockSize
		t1 := md.Write(now, addr, data[:], SrcCPU)
		t2 := hd.Write(now, addr, data[:], SrcCPU)
		if t1 != t2 {
			t.Fatalf("write %d: mmap done %d != heap done %d", i, t1, t2)
		}
		now += 13
	}
	md.Flush(now)
	hd.Flush(now)
	if !md.Storage().Equal(hd.Storage()) {
		t.Fatal("device contents diverge across backends")
	}
}

// BenchmarkMmapStorageWriteSeq is BenchmarkStorageWriteSeq on the mmap
// backend: same access pattern, file-backed pages.
func BenchmarkMmapStorageWriteSeq(b *testing.B) {
	s, err := NewMmapStorage("", 64<<20)
	if err != nil {
		b.Fatalf("NewMmapStorage: %v", err)
	}
	defer s.Close()
	var buf [BlockSize]byte
	const span = 32 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i*BlockSize)%span, buf[:])
	}
}

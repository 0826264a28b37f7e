package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Storage backends. The heap backend (the default) keeps contents in a
// sparse radix table of 4 KB chunks; the mmap backend keeps them in a
// file-backed memory mapping, which makes address spaces larger than
// physical RAM workable (untouched space is never resident) and turns the
// simulated NVM image into an ordinary file that can be synced, snapshotted
// and reopened. Both backends are byte-equivalent: reads of untouched space
// return zero, and Equal/Clone work across backends.

// Backend selects a Storage implementation.
type Backend uint8

const (
	// BackendHeap stores contents in process memory (the default).
	BackendHeap Backend = iota
	// BackendMmap stores contents in a file-backed memory mapping.
	BackendMmap
)

// String names the backend as accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case BackendHeap:
		return "heap"
	case BackendMmap:
		return "mmap"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend resolves a backend name.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "heap", "":
		return BackendHeap, nil
	case "mmap":
		return BackendMmap, nil
	}
	return 0, fmt.Errorf("mem: unknown storage backend %q (heap|mmap)", s)
}

// StorageSpec configures the backing store of a device. The zero value is
// the heap backend.
type StorageSpec struct {
	Backend Backend
	// Path is the image file for BackendMmap. Empty means a fresh
	// temporary file, removed when the storage is closed.
	Path string
	// Capacity is the data-region size in bytes for BackendMmap. The file
	// is sparse, so a generous capacity costs only virtual address space;
	// writes beyond it panic. Zero is rejected — callers size it from the
	// simulated physical space (see DefaultMmapCapacity).
	Capacity uint64
	// OpenExisting reattaches to an existing image at Path instead of
	// creating a fresh one (instant restore of a previously synced run).
	OpenExisting bool
}

// DefaultMmapCapacity sizes the mmap data region for a simulation over
// physBytes of physical space: the home region plus all checkpoint slot,
// journal and shadow areas any scheme allocates fit with a wide margin.
func DefaultMmapCapacity(physBytes uint64) uint64 {
	return 8*physBytes + 256<<20
}

// NewBackedStorage builds the storage a StorageSpec describes.
func NewBackedStorage(spec StorageSpec) (*Storage, error) {
	switch spec.Backend {
	case BackendHeap:
		return NewStorage(), nil
	case BackendMmap:
		if spec.OpenExisting {
			return OpenMmapStorage(spec.Path)
		}
		return NewMmapStorage(spec.Path, spec.Capacity)
	}
	return nil, fmt.Errorf("mem: unknown storage backend %d", spec.Backend)
}

// Mmap image file layout: a head page, a touched-chunk bitmap (the meta
// region), then the direct-mapped data region. All regions are page-sized
// multiples so the data region stays chunk-aligned in the mapping.
//
//	offset 0    head page: magic, version, chunk size, capacity,
//	            touched-chunk count (as of the last Sync), sync sequence
//	offset 4K   meta: 1 bit per data chunk, set once the chunk is written
//	offset 4K+M data: image byte i of the device lives at file offset 4K+M+i
const (
	mmapMagic   = 0x314d4d564e594854 // "THYNVMM1", little-endian
	mmapVersion = 1
	mmapHead    = storageChunk

	// maxMmapCapacity bounds the data-region size a head may declare (256
	// TiB — far beyond any simulation, far below uint64 overflow).
	maxMmapCapacity = uint64(1) << 48

	headOffMagic   = 0
	headOffVersion = 8
	headOffChunk   = 16
	headOffCap     = 24
	headOffTouched = 32
	headOffSyncSeq = 40
	headLen        = 48
)

// ErrBadImage is wrapped by every rejection of an mmap image head.
var ErrBadImage = errors.New("mem: bad mmap image")

// badHead formats a head rejection. The %.0w verb wraps ErrBadImage
// without printing it, so errors.Is finds the sentinel while the message
// reads as the description alone.
func badHead(format string, args ...any) error {
	return fmt.Errorf(format+"%.0w", append(args, ErrBadImage)...)
}

// putMmapHead encodes an image head declaring capBytes of data and the
// given sync sequence.
func putMmapHead(head []byte, capBytes, syncSeq uint64) {
	binary.LittleEndian.PutUint64(head[headOffMagic:], mmapMagic)
	binary.LittleEndian.PutUint64(head[headOffVersion:], mmapVersion)
	binary.LittleEndian.PutUint64(head[headOffChunk:], storageChunk)
	binary.LittleEndian.PutUint64(head[headOffCap:], capBytes)
	binary.LittleEndian.PutUint64(head[headOffSyncSeq:], syncSeq)
}

// parseMmapHead checks an image head against the size of its file and
// returns the data capacity and sync sequence it declares. Every
// rejection wraps ErrBadImage.
func parseMmapHead(head []byte, size int64) (capBytes, syncSeq uint64, err error) {
	if size < mmapHead || len(head) < headLen {
		return 0, 0, badHead("too short for an image head (%d bytes)", size)
	}
	if got := binary.LittleEndian.Uint64(head[headOffMagic:]); got != mmapMagic {
		return 0, 0, badHead("bad image magic %#x (want %#x)", got, uint64(mmapMagic))
	}
	if got := binary.LittleEndian.Uint64(head[headOffVersion:]); got != mmapVersion {
		return 0, 0, badHead("unsupported image version %d (want %d)", got, mmapVersion)
	}
	if got := binary.LittleEndian.Uint64(head[headOffChunk:]); got != storageChunk {
		return 0, 0, badHead("image chunk size %d does not match build (%d)", got, storageChunk)
	}
	capBytes = binary.LittleEndian.Uint64(head[headOffCap:])
	// Bound the declared capacity before deriving sizes from it: a corrupt
	// head could otherwise overflow the total and alias a tiny file.
	if capBytes == 0 || capBytes%storageChunk != 0 || capBytes > maxMmapCapacity {
		return 0, 0, badHead("implausible image capacity %d in head", capBytes)
	}
	total := mmapHead + mmapMetaBytes(capBytes) + capBytes
	if uint64(size) < total {
		return 0, 0, badHead("image truncated: file is %d bytes but the head declares %d (capacity %d) — refusing a partial image",
			size, total, capBytes)
	}
	if uint64(size) != total {
		return 0, 0, badHead("image capacity %d inconsistent with file size %d", capBytes, size)
	}
	return capBytes, binary.LittleEndian.Uint64(head[headOffSyncSeq:]), nil
}

// mmapMetaBytes is the size of the touched-chunk bitmap region for a data
// capacity, rounded up to whole pages.
func mmapMetaBytes(capBytes uint64) uint64 {
	bits := capBytes / storageChunk
	return (bits/8 + storageChunk - 1) &^ (storageChunk - 1)
}

// mmapBacking is the state of one mapped image.
type mmapBacking struct {
	f       *os.File
	path    string
	temp    bool // auto-created file: removed on Close
	mapping []byte
	bitmap  []byte // meta region view
	data    []byte // data region view
	capB    uint64
	touched uint64 // chunks with their bitmap bit set
	syncSeq uint64
}

// NewMmapStorage creates a fresh mmap-backed storage with the given data
// capacity. An empty path allocates a temporary image file that Close
// removes; an explicit path is created (truncated if present) and survives
// Close for later OpenMmapStorage.
func NewMmapStorage(path string, capBytes uint64) (*Storage, error) {
	if capBytes == 0 {
		return nil, fmt.Errorf("mem: mmap storage needs a capacity")
	}
	capBytes = (capBytes + storageChunk - 1) &^ uint64(storageChunk-1)
	var f *os.File
	var err error
	temp := path == ""
	if temp {
		f, err = os.CreateTemp("", "thynvm-nvm-*.img")
	} else {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("mem: mmap storage: %w", err)
	}
	total := mmapHead + mmapMetaBytes(capBytes) + capBytes
	if err := f.Truncate(int64(total)); err != nil {
		err = fmt.Errorf("mem: mmap storage: sizing %s: %w", f.Name(), err)
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	mapping, err := mmapFile(f, int(total))
	if err != nil {
		err = fmt.Errorf("mem: mmap storage: mapping %s: %w", f.Name(), err)
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	mm := &mmapBacking{
		f:       f,
		path:    f.Name(),
		temp:    temp,
		mapping: mapping,
		bitmap:  mapping[mmapHead : mmapHead+mmapMetaBytes(capBytes)],
		data:    mapping[mmapHead+mmapMetaBytes(capBytes):],
		capB:    capBytes,
	}
	putMmapHead(mapping, capBytes, 0)
	return &Storage{mm: mm}, nil
}

// OpenMmapStorage reattaches to an existing image file, validating its
// header; a rejected header's error wraps ErrBadImage. Contents written
// (and synced) by a previous run are visible immediately — restore costs
// no copying.
func OpenMmapStorage(path string) (*Storage, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("mem: mmap storage: %w", err)
	}
	fail := func(err error) (*Storage, error) {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("mem: mmap storage: %w", err))
	}
	var head [headLen]byte
	if st.Size() >= mmapHead {
		if _, err := f.ReadAt(head[:], 0); err != nil {
			return fail(fmt.Errorf("mem: %s: reading head: %w", path, err))
		}
	}
	capBytes, syncSeq, err := parseMmapHead(head[:], st.Size())
	if err != nil {
		return fail(fmt.Errorf("mem: %s: %w", path, err))
	}
	total := mmapHead + mmapMetaBytes(capBytes) + capBytes
	mapping, err := mmapFile(f, int(total))
	if err != nil {
		return fail(fmt.Errorf("mem: mmap storage: mapping %s: %w", path, err))
	}
	mm := &mmapBacking{
		f:       f,
		path:    path,
		mapping: mapping,
		bitmap:  mapping[mmapHead : mmapHead+mmapMetaBytes(capBytes)],
		data:    mapping[mmapHead+mmapMetaBytes(capBytes):],
		capB:    capBytes,
		syncSeq: syncSeq,
	}
	// The bitmap, not the head's count, is authoritative: the count is only
	// refreshed on Sync and the previous run may not have synced.
	for _, w := range mm.bitmap {
		if w != 0 {
			for b := w; b != 0; b &= b - 1 {
				mm.touched++
			}
		}
	}
	return &Storage{mm: mm}, nil
}

// write copies data into the image at addr and marks the covered chunks.
//
//thynvm:hotpath
func (m *mmapBacking) write(addr uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	end := addr + uint64(len(data))
	if end > m.capB || end < addr {
		panic("mem: write past mmap storage capacity (raise StorageSpec.Capacity)")
	}
	copy(m.data[addr:end], data)
	for c := addr / storageChunk; c <= (end-1)/storageChunk; c++ {
		bit := byte(1) << (c & 7)
		if m.bitmap[c>>3]&bit == 0 {
			m.bitmap[c>>3] |= bit
			m.touched++
		}
	}
}

// read copies len(buf) image bytes at addr into buf. Untouched space reads
// as zero because the file is sparse.
//
//thynvm:hotpath
func (m *mmapBacking) read(addr uint64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	end := addr + uint64(len(buf))
	if end > m.capB || end < addr {
		panic("mem: read past mmap storage capacity (raise StorageSpec.Capacity)")
	}
	copy(buf, m.data[addr:end])
}

// isTouched reports whether a data chunk has ever been written.
func (m *mmapBacking) isTouched(chunk uint64) bool {
	return chunk < m.capB/storageChunk && m.bitmap[chunk>>3]&(1<<(chunk&7)) != 0
}

// clear zeroes all touched chunks and the bitmap.
func (m *mmapBacking) clear() {
	for i, w := range m.bitmap {
		if w == 0 {
			continue
		}
		for b := 0; b < 8; b++ {
			if w&(1<<b) != 0 {
				off := (uint64(i)*8 + uint64(b)) * storageChunk
				clear(m.data[off : off+storageChunk])
			}
		}
		m.bitmap[i] = 0
	}
	m.touched = 0
}

// scan calls f for every touched chunk in ascending order, stopping early
// when f returns false.
func (m *mmapBacking) scan(f func(base uint64, chunk []byte) bool) {
	for i, w := range m.bitmap {
		if w == 0 {
			continue
		}
		for b := 0; b < 8; b++ {
			if w&(1<<b) == 0 {
				continue
			}
			base := uint64(i)*8 + uint64(b)
			if !f(base, m.data[base*storageChunk:(base+1)*storageChunk]) {
				return
			}
		}
	}
}

// writeHead refreshes the mutable head fields from the in-memory state.
func (m *mmapBacking) writeHead() {
	binary.LittleEndian.PutUint64(m.mapping[headOffTouched:], m.touched)
	binary.LittleEndian.PutUint64(m.mapping[headOffSyncSeq:], m.syncSeq)
}

// Sync flushes an mmap-backed storage's mapping to its file and bumps the
// image's sync sequence number. On the heap backend it is a no-op.
func (s *Storage) Sync() error {
	if s.mm == nil {
		return nil
	}
	s.mm.syncSeq++
	s.mm.writeHead()
	if err := msyncFile(s.mm.mapping); err != nil {
		return fmt.Errorf("mem: syncing %s: %w", s.mm.path, err)
	}
	return nil
}

// Snapshot writes a standalone copy of an mmap-backed image to path: head,
// bitmap, and only the touched data chunks (the copy is sparse, so it costs
// space and time proportional to the touched footprint, not the capacity).
// The source storage is synced first.
func (s *Storage) Snapshot(path string) error {
	if s.mm == nil {
		return fmt.Errorf("mem: the heap backend has no image to snapshot")
	}
	if err := s.Sync(); err != nil {
		return err
	}
	//thynvm:allow-nodefer closed explicitly on every path so the final Close error is reported
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("mem: snapshot: %w", err)
	}
	m := s.mm
	total := uint64(mmapHead) + uint64(len(m.bitmap)) + m.capB
	werr := f.Truncate(int64(total))
	if werr == nil {
		_, werr = f.WriteAt(m.mapping[:mmapHead+len(m.bitmap)], 0)
	}
	if werr == nil {
		dataOff := int64(mmapHead + len(m.bitmap))
		m.scan(func(base uint64, chunk []byte) bool {
			_, werr = f.WriteAt(chunk, dataOff+int64(base*storageChunk))
			return werr == nil
		})
	}
	if werr != nil {
		werr = fmt.Errorf("mem: snapshot %s: %w", path, werr)
		if cerr := f.Close(); cerr != nil {
			werr = errors.Join(werr, cerr)
		}
		return werr
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mem: snapshot %s: %w", path, err)
	}
	return nil
}

// Close unmaps and closes an mmap-backed storage, removing auto-created
// temporary images. Idempotent; a no-op on the heap backend.
func (s *Storage) Close() error {
	if s.mm == nil {
		return nil
	}
	m := s.mm
	s.mm = nil
	m.writeHead()
	err := munmapFile(m.mapping)
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	if m.temp {
		if rerr := os.Remove(m.path); err == nil {
			err = rerr
		}
	}
	return err
}

// Backend reports which backend holds this storage's contents.
func (s *Storage) Backend() Backend {
	if s.mm != nil {
		return BackendMmap
	}
	return BackendHeap
}

// ImagePath returns the image file path of an mmap-backed storage, or ""
// for the heap backend.
func (s *Storage) ImagePath() string {
	if s.mm == nil {
		return ""
	}
	return s.mm.path
}

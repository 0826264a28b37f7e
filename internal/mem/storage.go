package mem

import "thynvm/internal/radix"

// Storage is a sparse, byte-accurate backing store for a device's hardware
// address space. Unwritten bytes read as zero, so a multi-gigabyte address
// space costs only what is touched. Two backends exist (see Backend): the
// default heap backend allocates 4 KB chunks lazily in a radix table; the
// mmap backend keeps the same chunks in a file-backed mapping (backing.go).
//
// Heap chunks are indexed by a radix table rather than a map: the chunk
// index is dense near zero (physical frames are bump-allocated), so a
// lookup is a few array indexations, and the table's MRU leaf memo makes
// the common run of accesses to neighboring chunks a single indexation.
type Storage struct {
	chunks radix.Table[[]byte]
	mm     *mmapBacking // non-nil: contents live in the mapped image instead

	// integ, when non-nil, switches Read/Write onto the integrity-mode
	// paths (per-block checksums, dead-chunk poison; integrity.go). It is
	// heap-side state on both backends — never part of the image format.
	integ *integrityState
}

// storageChunk is the allocation unit of Storage.
const storageChunk = PageSize

// zeroChunk is the read source for untouched space.
var zeroChunk [storageChunk]byte

// NewStorage returns an empty heap-backed storage.
func NewStorage() *Storage {
	return &Storage{}
}

// Read copies len(buf) bytes starting at addr into buf.
//
//thynvm:hotpath
func (s *Storage) Read(addr uint64, buf []byte) {
	if s.integ != nil {
		//thynvm:allow-alloc integrity lazily allocates per-chunk checksum tables, amortized to zero
		s.integRead(addr, buf)
		return
	}
	if s.mm != nil {
		s.mm.read(addr, buf)
		return
	}
	// Fast path: the range lies within one chunk (every block access does).
	if off := addr % storageChunk; int(off)+len(buf) <= storageChunk {
		if c, ok := s.chunks.Get(addr / storageChunk); ok {
			copy(buf, c[off:])
		} else {
			copy(buf, zeroChunk[:len(buf)])
		}
		return
	}
	for len(buf) > 0 {
		base := addr / storageChunk
		off := int(addr % storageChunk)
		n := storageChunk - off
		if n > len(buf) {
			n = len(buf)
		}
		if c, ok := s.chunks.Get(base); ok {
			copy(buf[:n], c[off:off+n])
		} else {
			copy(buf[:n], zeroChunk[:])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Write copies data into storage starting at addr.
//
//thynvm:hotpath
func (s *Storage) Write(addr uint64, data []byte) {
	if s.integ != nil {
		//thynvm:allow-alloc integrity lazily allocates per-chunk checksum tables, amortized to zero
		s.integWrite(addr, data)
		return
	}
	if s.mm != nil {
		s.mm.write(addr, data)
		return
	}
	if off := addr % storageChunk; int(off)+len(data) <= storageChunk {
		slot := s.chunks.Ref(addr / storageChunk)
		if *slot == nil {
			//thynvm:allow-alloc lazy chunk allocation, once per touched chunk
			*slot = make([]byte, storageChunk)
		}
		copy((*slot)[off:], data)
		return
	}
	for len(data) > 0 {
		base := addr / storageChunk
		off := int(addr % storageChunk)
		n := storageChunk - off
		if n > len(data) {
			n = len(data)
		}
		slot := s.chunks.Ref(base)
		if *slot == nil {
			//thynvm:allow-alloc lazy chunk allocation, once per touched chunk
			*slot = make([]byte, storageChunk)
		}
		copy((*slot)[off:off+n], data[:n])
		data = data[n:]
		addr += uint64(n)
	}
}

// Clear discards all contents (a volatile device losing power).
func (s *Storage) Clear() {
	if s.mm != nil {
		s.mm.clear()
		return
	}
	s.chunks.Reset()
}

// FootprintBytes reports how many bytes of backing memory have been touched.
func (s *Storage) FootprintBytes() uint64 {
	if s.mm != nil {
		return s.mm.touched * storageChunk
	}
	return uint64(s.chunks.Len()) * storageChunk
}

// Holds reports whether n bytes at addr lie inside the storage's address
// space: the range ends at least a page below 2^64, so the block and chunk
// walks over it cannot wrap, and on the mmap backend it fits the image's
// capacity (reading past it panics). The heap backend's space is otherwise
// unbounded.
func (s *Storage) Holds(addr, n uint64) bool {
	end := addr + n
	return end >= addr && end <= ^uint64(0)-PageSize && (s.mm == nil || end <= s.mm.capB)
}

// touchedChunks counts chunks ever written.
func (s *Storage) touchedChunks() int {
	if s.mm != nil {
		return int(s.mm.touched)
	}
	return s.chunks.Len()
}

// chunkAt returns the storage's view of a touched chunk, regardless of
// backend.
func (s *Storage) chunkAt(base uint64) ([]byte, bool) {
	if s.mm != nil {
		if !s.mm.isTouched(base) {
			return nil, false
		}
		return s.mm.data[base*storageChunk : (base+1)*storageChunk], true
	}
	return s.chunks.Get(base)
}

// scanChunks calls f for every touched chunk, regardless of backend,
// stopping early when f returns false. The heap backend scans in radix
// (ascending index) order; the mmap backend in ascending index order.
func (s *Storage) scanChunks(f func(base uint64, chunk []byte) bool) {
	if s.mm != nil {
		s.mm.scan(f)
		return
	}
	s.chunks.Scan(f)
}

// Clone returns a deep copy of the storage, used by the verification oracle
// to snapshot durable state at commit points. The clone is always
// heap-backed — snapshots are in-memory values even when the source lives
// in a mapped image.
func (s *Storage) Clone() *Storage {
	c := NewStorage()
	backing := make([]byte, s.touchedChunks()*storageChunk)
	if s.mm != nil {
		s.mm.scan(func(base uint64, chunk []byte) bool {
			dup := backing[:storageChunk:storageChunk]
			backing = backing[storageChunk:]
			copy(dup, chunk)
			*c.chunks.Ref(base) = dup
			return true
		})
		return c
	}
	c.chunks = *s.chunks.Clone(func(chunk []byte) []byte {
		dup := backing[:storageChunk:storageChunk]
		backing = backing[storageChunk:]
		copy(dup, chunk)
		return dup
	})
	return c
}

// Equal reports whether two storages hold identical contents over all
// touched addresses of either. The two sides may use different backends —
// this is how cross-backend runs prove their final images match.
func (s *Storage) Equal(o *Storage) bool {
	equal := true
	s.scanChunks(func(base uint64, chunk []byte) bool {
		oc, ok := o.chunkAt(base)
		if !ok {
			oc = zeroChunk[:]
		}
		equal = bytesEqual(chunk, oc)
		return equal
	})
	if !equal {
		return false
	}
	o.scanChunks(func(base uint64, chunk []byte) bool {
		if _, ok := s.chunkAt(base); !ok {
			equal = bytesEqual(chunk, zeroChunk[:])
		}
		return equal
	})
	return equal
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

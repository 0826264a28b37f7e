package mem

import (
	"bytes"

	"thynvm/internal/radix"
)

// Storage is a sparse, byte-accurate backing store for a device's hardware
// address space. Unwritten bytes read as zero, so a multi-gigabyte address
// space costs only what is touched: 4 KB chunks are allocated on their
// first write.
//
// Chunks are indexed by a radix table rather than a map: the chunk index
// is dense near zero (physical frames are bump-allocated), so a lookup is
// a few array indexations, and the table's MRU leaf memo makes the common
// run of accesses to neighboring chunks a single indexation.
type Storage struct {
	chunks radix.Table[[]byte]

	// integ, when non-nil, switches Read/Write onto the integrity-mode
	// paths (per-block checksums, dead-chunk poison; integrity.go).
	integ *integrityState
}

// storageChunk is the allocation unit of Storage.
const storageChunk = PageSize

// zeroChunk is the read source for untouched space.
var zeroChunk [storageChunk]byte

// NewStorage returns an empty storage.
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
	s.chunks.Reset()
}

// FootprintBytes reports how many bytes of backing memory have been touched.
func (s *Storage) FootprintBytes() uint64 {
	return uint64(s.chunks.Len()) * storageChunk
}

// Holds reports whether n bytes at addr lie inside the storage's address
// space: the range ends at least a page below 2^64, so the block and chunk
// walks over it cannot wrap. The space is otherwise unbounded.
func (s *Storage) Holds(addr, n uint64) bool {
	end := addr + n
	return end >= addr && end <= ^uint64(0)-PageSize
}

// Clone returns a deep copy of the storage, used by the verification oracle
// to snapshot durable state at commit points.
func (s *Storage) Clone() *Storage {
	c := NewStorage()
	backing := make([]byte, s.chunks.Len()*storageChunk)
	c.chunks = *s.chunks.Clone(func(chunk []byte) []byte {
		dup := backing[:storageChunk:storageChunk]
		backing = backing[storageChunk:]
		copy(dup, chunk)
		return dup
	})
	return c
}

// Equal reports whether two storages hold identical contents over all
// touched addresses of either; a touched chunk of zeros equals an
// untouched one.
func (s *Storage) Equal(o *Storage) bool {
	equal := true
	s.chunks.Scan(func(base uint64, chunk []byte) bool {
		oc, ok := o.chunks.Get(base)
		if !ok {
			oc = zeroChunk[:]
		}
		equal = bytes.Equal(chunk, oc)
		return equal
	})
	if !equal {
		return false
	}
	o.chunks.Scan(func(base uint64, chunk []byte) bool {
		if _, ok := s.chunks.Get(base); !ok {
			equal = bytes.Equal(chunk, zeroChunk[:])
		}
		return equal
	})
	return equal
}

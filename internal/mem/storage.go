package mem

import (
	"sync"

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
// run of accesses to neighboring chunks a single indexation. Clear keeps
// the table's nodes and its chunks, so a volatile device refilled after a
// crash allocates nothing for the space it touched before; a released
// storage hands its chunks to chunkPool, where any storage's first writes
// find them.
type Storage struct {
	chunks radix.Table[*chunk]
	spare  []*chunk // chunks Clear released, reused before allocating

	// integ, when non-nil, switches Read/Write onto the integrity-mode
	// paths (per-block checksums, dead-chunk poison; integrity.go).
	integ *integrityState
}

// storageChunk is the allocation unit of Storage.
const storageChunk = PageSize

// chunk is one storageChunk-sized run of contents. A fixed-size array
// keeps a chunk table's leaf at one pointer per slot, not a slice header.
type chunk = [storageChunk]byte

// zeroChunk is the read source for untouched space.
var zeroChunk chunk

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
			*slot = s.newChunk()
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
			*slot = s.newChunk()
		}
		copy((*slot)[off:off+n], data[:n])
		data = data[n:]
		addr += uint64(n)
	}
}

// chunkPool holds the chunks of released storages for reuse. A chunk
// moves whole to one storage at a time and is zeroed before its first
// write there, so no output depends on which storage, or which goroutine,
// released it.
//
//thynvm:allow-concurrency a pool of released chunks; each chunk moves whole to one storage at a time
var chunkPool sync.Pool

// newChunk returns a zeroed chunk for a first write: one Clear released
// if there is one, else one a released storage left in chunkPool, else a
// new one.
func (s *Storage) newChunk() *chunk {
	var c *chunk
	if k := len(s.spare) - 1; k >= 0 {
		c = s.spare[k]
		s.spare = s.spare[:k]
	} else {
		//thynvm:allow-concurrency takes a whole released chunk for this storage (see chunkPool)
		c, _ = chunkPool.Get().(*chunk)
		if c == nil {
			return new(chunk)
		}
	}
	*c = chunk{}
	return c
}

// release hands every chunk the storage holds, in its table and its spare
// list, to chunkPool, and drops the table and the integrity state. The
// storage must not be used afterwards.
func (s *Storage) release() {
	s.chunks.Scan(func(_ uint64, c *chunk) bool {
		//thynvm:allow-concurrency returns a chunk no storage holds any more (see chunkPool)
		chunkPool.Put(c)
		return true
	})
	for _, c := range s.spare {
		//thynvm:allow-concurrency returns a chunk no storage holds any more (see chunkPool)
		chunkPool.Put(c)
	}
	*s = Storage{}
}

// Clear discards all contents (a volatile device losing power). The
// table's nodes and the chunks are kept for the writes that follow.
func (s *Storage) Clear() {
	s.chunks.Scan(func(_ uint64, c *chunk) bool {
		s.spare = append(s.spare, c)
		return true
	})
	s.chunks.Clear()
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
	slab := make([]chunk, s.chunks.Len())
	c.chunks = *s.chunks.Clone(func(src *chunk) *chunk {
		dup := &slab[0]
		slab = slab[1:]
		*dup = *src
		return dup
	})
	return c
}

// Equal reports whether two storages hold identical contents over all
// touched addresses of either; a touched chunk of zeros equals an
// untouched one.
func (s *Storage) Equal(o *Storage) bool {
	equal := true
	s.chunks.Scan(func(base uint64, c *chunk) bool {
		oc, ok := o.chunks.Get(base)
		if !ok {
			oc = &zeroChunk
		}
		equal = *c == *oc
		return equal
	})
	if !equal {
		return false
	}
	o.chunks.Scan(func(base uint64, c *chunk) bool {
		if _, ok := s.chunks.Get(base); !ok {
			equal = *c == zeroChunk
		}
		return equal
	})
	return equal
}

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
// the table's nodes, and Clear and a release hand the chunks to one
// bounded free list (freeChunks) where any storage's first writes find
// them, so a volatile device refilled after a crash, or the next system
// after a closed one, allocates nothing for the space touched before.
type Storage struct {
	chunks radix.Table[*chunk]

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
			*slot = newChunk()
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
			*slot = newChunk()
		}
		copy((*slot)[off:off+n], data[:n])
		data = data[n:]
		addr += uint64(n)
	}
}

// freeChunks is the free list of the chunks cleared and released storages
// gave up, at most maxFreeChunks of them. A storage's first write to a
// chunk takes the chunk freed last and zeroes it, so no output depends on
// which storage, or which goroutine, freed it. Unlike a sync.Pool, the
// list survives garbage collection, so how many chunks a run allocates
// does not depend on when the collector runs.
var (
	//thynvm:allow-concurrency guards the free list every storage shares (see freeChunks)
	freeMu     sync.Mutex
	freeChunks []*chunk
)

// maxFreeChunks bounds the free list at 48 MiB; a chunk freed past it goes
// to the garbage collector. That holds every chunk one default-scale
// system touches (the largest in perfbench micro holds 12,206), while an
// unbounded list keeps the largest system's chunks, idle, for the rest of
// the process: perfbench kv's peak RSS rose from about 200 MB to 240-261.
const maxFreeChunks = 12 << 10

// newChunk returns a zeroed chunk for a first write: the chunk freed last,
// else a new one.
func newChunk() *chunk {
	//thynvm:allow-concurrency takes a whole freed chunk for one storage (see freeChunks)
	freeMu.Lock()
	var c *chunk
	if k := len(freeChunks) - 1; k >= 0 {
		c = freeChunks[k]
		freeChunks[k] = nil // the list no longer holds it
		freeChunks = freeChunks[:k]
	}
	//thynvm:allow-concurrency see freeChunks
	freeMu.Unlock()
	if c == nil {
		return new(chunk)
	}
	*c = chunk{}
	return c
}

// freeTable appends the chunks of t, in ascending index order, to the
// free list until it holds maxFreeChunks; the caller then clears or drops
// t.
func freeTable(t *radix.Table[*chunk]) {
	//thynvm:allow-concurrency returns whole chunks no storage holds any more (see freeChunks)
	freeMu.Lock()
	t.Scan(func(_ uint64, c *chunk) bool {
		if len(freeChunks) == maxFreeChunks {
			return false
		}
		freeChunks = append(freeChunks, c)
		return true
	})
	//thynvm:allow-concurrency see freeChunks
	freeMu.Unlock()
}

// release hands every chunk the storage holds to the free list and drops
// the table and the integrity state. The storage must not be used
// afterwards.
func (s *Storage) release() {
	freeTable(&s.chunks)
	*s = Storage{}
}

// Clear discards all contents (a volatile device losing power). The
// table's nodes are kept, and its chunks go to the free list, where the
// writes that follow find them.
func (s *Storage) Clear() {
	freeTable(&s.chunks)
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

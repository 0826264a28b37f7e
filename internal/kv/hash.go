package kv

import (
	"fmt"

	"thynvm/internal/alloc"
)

// HashTable is a chained hash table in simulated persistent memory,
// modeled on the STAMP-style persistent hash table of the paper's Figure 1
// and storage benchmarks.
//
// Layout:
//
//	header:  [magic u64][nbuckets u64][count u64][buckets u64]
//	buckets: nbuckets pointers to chain heads
//	node:    [next u64][key u64][valLen u64][valPtr u64]
type HashTable struct {
	io     memIO
	arena  *alloc.Arena
	head   uint64 // header address
	nb     uint64
	bucket uint64 // buckets array address
}

const (
	htMagic      = 0x5448484153480001 // "THHASH"+v1
	htHeaderSize = 32
	htNodeSize   = 32

	nodeNext   = 0
	nodeKey    = 8
	nodeValLen = 16
	nodeValPtr = 24
)

// NewHashTable creates a fresh table with nbuckets chains. headerAddr is
// where the table header lives; all other storage comes from the arena.
func NewHashTable(m Memory, arena *alloc.Arena, headerAddr uint64, nbuckets uint64) (*HashTable, error) {
	if nbuckets == 0 {
		return nil, fmt.Errorf("kv: nbuckets must be positive")
	}
	io := memIO{m, new([8]byte)}
	bucket, err := arena.Alloc(int(nbuckets * 8))
	if err != nil {
		return nil, err
	}
	zero := make([]byte, nbuckets*8)
	m.Write(bucket, zero)
	io.writeU64(headerAddr, htMagic)
	io.writeU64(headerAddr+8, nbuckets)
	io.writeU64(headerAddr+16, 0)
	io.writeU64(headerAddr+24, bucket)
	return &HashTable{io: io, arena: arena, head: headerAddr, nb: nbuckets, bucket: bucket}, nil
}

// OpenHashTable attaches to an existing table at headerAddr — the post-
// recovery path: the header and all nodes live in (recovered) persistent
// memory.
func OpenHashTable(m Memory, arena *alloc.Arena, headerAddr uint64) (*HashTable, error) {
	io := memIO{m, new([8]byte)}
	if got := io.readU64(headerAddr); got != htMagic {
		return nil, fmt.Errorf("kv: no hash table at %#x (magic %#x)", headerAddr, got)
	}
	nb := io.readU64(headerAddr + 8)
	if nb == 0 {
		return nil, fmt.Errorf("kv: hash table at %#x has no buckets", headerAddr)
	}
	bucket := io.readU64(headerAddr + 24)
	return &HashTable{io: io, arena: arena, head: headerAddr, nb: nb, bucket: bucket}, nil
}

func (h *HashTable) slot(key uint64) uint64 {
	hash := key * 0x9E3779B97F4A7C15
	return h.bucket + (hash%h.nb)*8
}

// find walks the chain for key, returning the node address and the address
// of the pointer that points at it (for unlinking).
func (h *HashTable) find(key uint64) (node, prevPtr uint64) {
	prevPtr = h.slot(key)
	node = h.io.readU64(prevPtr)
	for node != 0 {
		if h.io.readU64(node+nodeKey) == key {
			return node, prevPtr
		}
		prevPtr = node + nodeNext
		node = h.io.readU64(prevPtr)
	}
	return 0, prevPtr
}

// Put implements Store.
func (h *HashTable) Put(key uint64, val []byte) error {
	node, _ := h.find(key)
	if node != 0 {
		// Update in place when the new value fits the old extent — the
		// natural persistent-memory code ThyNVM is designed to host (the
		// memory system, not the application, provides consistency).
		oldLen := h.io.readU64(node + nodeValLen)
		oldPtr := h.io.readU64(node + nodeValPtr)
		if fitsExtent(len(val), oldLen) {
			h.io.m.Write(oldPtr, val)
			h.io.writeU64(node+nodeValLen, uint64(len(val)))
			return nil
		}
		newPtr, err := storeValue(h.io, h.arena, val)
		if err != nil {
			return err
		}
		h.io.writeU64(node+nodeValLen, uint64(len(val)))
		h.io.writeU64(node+nodeValPtr, newPtr)
		h.arena.Free(oldPtr, int(oldLen))
		return nil
	}
	valPtr, err := storeValue(h.io, h.arena, val)
	if err != nil {
		return err
	}
	n, err := h.arena.Alloc(htNodeSize)
	if err != nil {
		return err
	}
	slot := h.slot(key)
	h.io.writeU64(n+nodeNext, h.io.readU64(slot))
	h.io.writeU64(n+nodeKey, key)
	h.io.writeU64(n+nodeValLen, uint64(len(val)))
	h.io.writeU64(n+nodeValPtr, valPtr)
	h.io.writeU64(slot, n)
	h.io.writeU64(h.head+16, h.io.readU64(h.head+16)+1)
	return nil
}

// Get implements Store.
func (h *HashTable) Get(key uint64) ([]byte, bool, error) {
	node, _ := h.find(key)
	if node == 0 {
		return nil, false, nil
	}
	n := h.io.readU64(node + nodeValLen)
	ptr := h.io.readU64(node + nodeValPtr)
	return loadValue(h.io, ptr, n), true, nil
}

// Delete implements Store.
func (h *HashTable) Delete(key uint64) (bool, error) {
	node, prevPtr := h.find(key)
	if node == 0 {
		return false, nil
	}
	h.io.writeU64(prevPtr, h.io.readU64(node+nodeNext))
	valLen := h.io.readU64(node + nodeValLen)
	valPtr := h.io.readU64(node + nodeValPtr)
	h.arena.Free(valPtr, int(valLen))
	h.arena.Free(node, htNodeSize)
	h.io.writeU64(h.head+16, h.io.readU64(h.head+16)-1)
	return true, nil
}

// Len implements Store.
func (h *HashTable) Len() (uint64, error) {
	return h.io.readU64(h.head + 16), nil
}

var _ Store = (*HashTable)(nil)

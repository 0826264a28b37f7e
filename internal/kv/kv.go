// Package kv implements the paper's storage-oriented in-memory workloads
// (§5.3): key-value stores backed by a hash table and by a red-black tree,
// whose nodes and values live in the simulated persistent memory. Every
// pointer dereference and value copy is a real load/store through the
// simulated CPU caches and memory controller, so the stores exercise the
// crash-consistency schemes exactly as the paper's benchmarks do.
package kv

import (
	"encoding/binary"
	"fmt"

	"thynvm/internal/alloc"
)

// Memory is the load/store interface the stores run on (implemented by
// sim.Machine).
type Memory interface {
	Read(addr uint64, buf []byte)
	Write(addr uint64, data []byte)
}

// Store is a persistent key-value store.
type Store interface {
	// Put inserts or updates key with val.
	Put(key uint64, val []byte) error
	// Get returns a copy of key's value, or ok=false.
	Get(key uint64) (val []byte, ok bool, err error)
	// Delete removes key, reporting whether it existed.
	Delete(key uint64) (bool, error)
	// Len returns the number of stored keys.
	Len() (uint64, error)
}

// memIO wraps Memory with integer helpers. w is the store's one word of
// scratch: a local array would escape through the Memory interface and
// cost an allocation per word. A store runs on one goroutine.
type memIO struct {
	m Memory
	w *[8]byte
}

func (io memIO) readU64(addr uint64) uint64 {
	io.m.Read(addr, io.w[:])
	return binary.LittleEndian.Uint64(io.w[:])
}

func (io memIO) writeU64(addr, v uint64) {
	binary.LittleEndian.PutUint64(io.w[:], v)
	io.m.Write(addr, io.w[:])
}

// fitsExtent reports whether a new value of n bytes fits the extent that
// currently holds oldLen bytes (extents are rounded to 16-byte classes).
func fitsExtent(n int, oldLen uint64) bool {
	round := func(v uint64) uint64 {
		r := (v + 15) &^ 15
		if r == 0 {
			r = 16
		}
		return r
	}
	return round(uint64(n)) <= round(oldLen)
}

// storeValue allocates and writes a value, returning its address.
func storeValue(io memIO, arena *alloc.Arena, val []byte) (uint64, error) {
	if len(val) == 0 {
		return 0, fmt.Errorf("kv: empty values are not supported")
	}
	addr, err := arena.Alloc(len(val))
	if err != nil {
		return 0, err
	}
	io.m.Write(addr, val)
	return addr, nil
}

func loadValue(io memIO, addr uint64, n uint64) []byte {
	out := make([]byte, n)
	io.m.Read(addr, out)
	return out
}

package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"thynvm/internal/mem"
)

// recBackend is a byte-accurate backend that feeds every call into a hash:
// the op, the cycle it was issued at, the address and the bytes moved. Its
// latencies depend on the address, so a change in call order or issue
// cycle changes the cycles returned to the hierarchy as well as the log.
type recBackend struct {
	store *mem.Storage
	sum   hash.Hash
}

func (b *recBackend) put(vals ...uint64) {
	var w [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w[:], v)
		b.sum.Write(w[:])
	}
}

func (b *recBackend) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	b.store.Read(addr, buf)
	b.put('R', uint64(now), addr)
	b.sum.Write(buf)
	return now + 100 + mem.Cycle(addr/mem.BlockSize%7)
}

func (b *recBackend) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	b.store.Write(addr, data)
	b.put('W', uint64(now), addr)
	b.sum.Write(data)
	return now + mem.Cycle(addr/mem.BlockSize%5)
}

// TestHierarchyBehaviourPinned drives each hierarchy with a seeded mix of
// 1–64-byte reads and writes over a 4 MB footprint, with periodic flushes,
// cache peeks and a mid-run invalidation, and hashes everything the
// hierarchy shows the outside: the ordered backend call log, every
// returned cycle, every byte read, the flush results, Stats and
// DirtyBlocks. The constants of default and tiny were captured before the
// level layout became flat arrays, and direct's before line data moved into
// pages and LRU stamps into one recency word per set; any change to
// replacement, flush order or timing moves them.
func TestHierarchyBehaviourPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func(Backend) *Hierarchy
		ops   int
		want  string
	}{
		{"default", Default, 300_000, "a5eec495a7ae7c154b0c9365ab7d3379dbb74f2f7d5cc89c181335c07c8423e9"},
		{"tiny", tinyHierarchy, 20_000, "00c51da248247bb5e25b59fe5ffe521dbdb9974377dfed5e96d5e0fd7fc20613"},
		{"direct", directHierarchy, 100_000, "3b1b14129d87daff2617f4455214a9ff8d5fcd7bec27488f84095529eadb9398"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &recBackend{store: mem.NewStorage(), sum: sha256.New()}
			h := tc.build(b)
			rng := rand.New(rand.NewSource(15))
			var buf [mem.BlockSize]byte
			now := mem.Cycle(0)
			for i := 0; i < tc.ops; i++ {
				// Three nested windows of one 4 MB footprint: hits in
				// every level, conflict evictions and backend traffic.
				spans := [...]int64{512, 256 << 10, 4 << 20}
				addr := uint64(rng.Int63n(spans[rng.Intn(len(spans))]))
				n := 1 + rng.Intn(mem.BlockSize)
				if room := int(mem.BlockSize - addr%mem.BlockSize); n > room {
					n = room
				}
				now += mem.Cycle(rng.Intn(3))
				switch r := rng.Intn(100); {
				case r < 45:
					for j := range buf[:n] {
						buf[j] = byte(rng.Intn(256))
					}
					now = h.Write(now, addr, buf[:n])
					b.put('w', uint64(now))
				case r < 98:
					now = h.Read(now, addr, buf[:n])
					b.put('r', uint64(now))
					b.sum.Write(buf[:n])
				default:
					h.PeekOverlay(mem.BlockAlign(addr), buf[:])
					b.put('p')
					b.sum.Write(buf[:])
				}
				if i%(tc.ops/6) == tc.ops/6-1 {
					var flushed int
					now, flushed = h.FlushDirty(now, 4)
					b.put('f', uint64(now), uint64(flushed), uint64(h.DirtyBlocks()))
				}
				if i == tc.ops/2+tc.ops/40 {
					b.put('d', uint64(h.DirtyBlocks()))
					h.InvalidateAll()
					b.put('i', uint64(h.DirtyBlocks()))
				}
			}
			for _, s := range h.Stats() {
				b.sum.Write([]byte(s.Name))
				b.put(s.Hits, s.Misses, s.Writebacks, s.Flushed)
			}
			b.put(uint64(h.DirtyBlocks()))
			if got := hex.EncodeToString(b.sum.Sum(nil)); got != tc.want {
				t.Errorf("behaviour digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// directHierarchy puts a direct-mapped (1-way) level over a 16-way one, the
// two ends of the associativity a level supports: 64 sets each.
func directHierarchy(b Backend) *Hierarchy {
	return NewHierarchy(b,
		LevelSpec{Name: "L1", SizeB: 4 << 10, Ways: 1, HitLat: 2},
		LevelSpec{Name: "L2", SizeB: 64 << 10, Ways: 16, HitLat: 10},
	)
}

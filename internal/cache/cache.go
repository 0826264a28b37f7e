// Package cache implements the CPU cache hierarchy of the simulated system:
// set-associative write-back caches with LRU replacement, byte-accurate
// contents and dirty-block tracking.
//
// The hierarchy matters to ThyNVM for two reasons. First, it filters the
// memory traffic that reaches the memory controller, which is where the
// paper's consistency schemes live. Second, its dirty blocks are volatile
// state that the checkpointing phase must flush to the memory system
// (the paper's hardware-assisted "data flush", §4.4); blocks are cleaned
// but not invalidated, mirroring Intel CLWB semantics.
//
// Geometry defaults follow Table 2 of the paper: L1 32 KB 8-way (4-cycle
// hit), L2 256 KB 8-way (12-cycle hit), L3 2 MB 16-way (28-cycle hit),
// all with 64 B blocks.
package cache

import (
	"fmt"
	"math/bits"

	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// Backend is the memory system beneath the cache hierarchy. Addresses are
// physical and block-aligned; buffers are exactly one block long.
// ReadBlock returns the completion cycle of the read; WriteBlock returns
// the cycle at which the issuer may proceed (writes may be posted).
type Backend interface {
	ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle
	WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle
}

// LevelSpec describes one cache level.
type LevelSpec struct {
	Name   string
	SizeB  int       // total capacity in bytes
	Ways   int       // associativity
	HitLat mem.Cycle // access latency on hit (also charged on the miss path)
}

// L1Spec returns the paper's L1: private 32 KB, 8-way, 4-cycle hit.
func L1Spec() LevelSpec { return LevelSpec{Name: "L1", SizeB: 32 << 10, Ways: 8, HitLat: 4} }

// L2Spec returns the paper's L2: private 256 KB, 8-way, 12-cycle hit.
func L2Spec() LevelSpec { return LevelSpec{Name: "L2", SizeB: 256 << 10, Ways: 8, HitLat: 12} }

// L3Spec returns the paper's L3: 2 MB per core, 16-way, 28-cycle hit.
func L3Spec() LevelSpec { return LevelSpec{Name: "L3", SizeB: 2 << 20, Ways: 16, HitLat: 28} }

// LevelStats counts events at one cache level.
type LevelStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions pushed to the level below
	Flushed    uint64 // dirty blocks cleaned by FlushDirty
}

// level is one set-associative cache in flat, pointer-free arrays. A line
// is an index set*ways+way into each of them.
type level struct {
	spec  LevelSpec
	nsets uint64
	tags  []uint64              // block+1 per line; 0 marks an invalid line
	used  []uint64              // LRU stamp per line
	dirty []uint64              // dirty bitmap, bit i%64 of word i/64 for line i
	data  [][mem.BlockSize]byte // one slab: line i's block is data[i]
	stats LevelStats
}

// newLevel builds an empty level; NewHierarchy has checked the spec holds
// at least one set.
func newLevel(spec LevelSpec) *level {
	nsets := spec.SizeB / (spec.Ways * mem.BlockSize)
	lines := nsets * spec.Ways
	return &level{spec: spec, nsets: uint64(nsets),
		tags:  make([]uint64, lines),
		used:  make([]uint64, lines),
		dirty: make([]uint64, (lines+63)/64),
		data:  make([][mem.BlockSize]byte, lines),
	}
}

// isDirty reports line i's dirty bit.
func (l *level) isDirty(i int) bool { return l.dirty[uint(i)/64]>>(uint(i)%64)&1 != 0 }

// lookup returns the line holding block, or -1.
//
//thynvm:hotpath
func (l *level) lookup(block uint64) int {
	base := int(block%l.nsets) * l.spec.Ways
	for w, tag := range l.tags[base : base+l.spec.Ways] {
		if tag == block+1 {
			return base + w
		}
	}
	return -1
}

// victim picks the replacement line in block's set: the first invalid way
// if one exists, else the least recently used way (the lowest on a tie).
func (l *level) victim(block uint64) int {
	base := int(block%l.nsets) * l.spec.Ways
	used := l.used[base : base+l.spec.Ways]
	v := 0
	for w, tag := range l.tags[base : base+l.spec.Ways] {
		if tag == 0 {
			return base + w
		}
		if used[w] < used[v] {
			v = w
		}
	}
	return base + v
}

// Hierarchy is a multi-level write-back, write-allocate cache hierarchy in
// front of a Backend.
type Hierarchy struct {
	levels []*level
	back   Backend
	tick   uint64
	dirty  int // dirty lines across all levels, maintained incrementally

	// scratch is the block staging buffer for Read/Write. The hierarchy is
	// single-threaded and backend calls never reenter it, so one buffer
	// keeps the access path allocation-free.
	scratch [mem.BlockSize]byte

	// Telemetry: miss fills and memory writebacks become spans on the
	// cache track when recOn (cached flag; detached costs one branch).
	rec   obs.Recorder
	recOn bool
}

// NewHierarchy builds a hierarchy with the given level specs (outermost
// last) on top of back. With no specs the hierarchy is a transparent
// pass-through to the backend.
func NewHierarchy(back Backend, specs ...LevelSpec) *Hierarchy {
	h := &Hierarchy{back: back, levels: make([]*level, 0, len(specs))}
	for _, s := range specs {
		if s.Ways <= 0 || s.SizeB < s.Ways*mem.BlockSize {
			panic(fmt.Sprintf("cache: invalid level spec %+v", s))
		}
		h.levels = append(h.levels, newLevel(s))
	}
	return h
}

// Default returns the paper's three-level hierarchy over back.
func Default(back Backend) *Hierarchy {
	return NewHierarchy(back, L1Spec(), L2Spec(), L3Spec())
}

// SetRecorder attaches a telemetry recorder; memory-level miss fills and
// writebacks are emitted as spans on the cache track. Pass nil to detach.
func (h *Hierarchy) SetRecorder(r obs.Recorder) {
	h.rec = r
	h.recOn = r != nil && r.Enabled()
}

// Stats returns per-level statistics keyed by level name, in order.
func (h *Hierarchy) Stats() []struct {
	Name string
	LevelStats
} {
	out := make([]struct {
		Name string
		LevelStats
	}, len(h.levels))
	for i, l := range h.levels {
		out[i].Name = l.spec.Name
		out[i].LevelStats = l.stats
	}
	return out
}

// DirtyBlocks returns the number of dirty lines across all levels (volatile
// state that a checkpoint flush would have to write down). O(1).
func (h *Hierarchy) DirtyBlocks() int { return h.dirty }

// setDirty transitions the dirty bit of l's line i, keeping the global
// counter.
func (h *Hierarchy) setDirty(l *level, i int, d bool) {
	if l.isDirty(i) == d {
		return
	}
	l.dirty[uint(i)/64] ^= 1 << (uint(i) % 64)
	if d {
		h.dirty++
	} else {
		h.dirty--
	}
}

// fetch copies block (a block index) into buf and returns the cycle at
// which it is available. It looks in level li, then in each level below it,
// then in the backend; every level that missed installs the block on the
// way back up, writing a dirty victim to the level below (or the backend).
//
//thynvm:hotpath
func (h *Hierarchy) fetch(now mem.Cycle, li int, block uint64, buf []byte) mem.Cycle {
	if li == len(h.levels) {
		return h.back.ReadBlock(now, block*mem.BlockSize, buf)
	}
	l := h.levels[li]
	now += l.spec.HitLat
	if i := l.lookup(block); i >= 0 {
		l.stats.Hits++
		h.tick++
		l.used[i] = h.tick
		copy(buf, l.data[i][:])
		return now
	}
	l.stats.Misses++
	if h.recOn && li == len(h.levels)-1 {
		// The last-level miss window is the fill that actually reaches
		// the memory controller; inner-level misses nest inside it and
		// would only repeat the same interval.
		h.rec.BeginSpan(obs.TrackCache, uint64(now), obs.SpanCacheFetch, obs.CauseExec, block)
		done := h.fetch(now, li+1, block, buf)
		h.rec.EndSpan(obs.TrackCache, uint64(done))
		h.install(done, li, block, buf)
		return done
	}
	done := h.fetch(now, li+1, block, buf)
	h.install(done, li, block, buf)
	return done
}

// install places a clean copy of data for block into level li, evicting as
// needed, and returns its line. The victim's writeback is charged at now.
func (h *Hierarchy) install(now mem.Cycle, li int, block uint64, data []byte) int {
	l := h.levels[li]
	v := l.victim(block)
	if l.isDirty(v) {
		l.stats.Writebacks++
		h.setDirty(l, v, false)
		h.writeBelow(now, li, l.tags[v]-1, l.data[v][:])
	}
	l.tags[v] = block + 1
	h.tick++
	l.used[v] = h.tick
	copy(l.data[v][:], data)
	return v
}

// writeBelow delivers a dirty block evicted from level li to level li+1
// (updating in place if present, else installing) or to the backend.
func (h *Hierarchy) writeBelow(now mem.Cycle, li int, block uint64, data []byte) {
	for lj := li + 1; lj < len(h.levels); lj++ {
		l := h.levels[lj]
		if i := l.lookup(block); i >= 0 {
			copy(l.data[i][:], data)
			h.setDirty(l, i, true)
			h.tick++
			l.used[i] = h.tick
			return
		}
	}
	// Not present anywhere below: write back to memory. (We do not
	// allocate in lower levels on eviction; this keeps the hierarchy
	// simple and slightly exclusive, which does not affect the
	// consistency schemes under study.)
	if h.recOn {
		h.rec.BeginSpan(obs.TrackCache, uint64(now), obs.SpanCacheWriteback, obs.CauseExec, block)
		ack := h.back.WriteBlock(now, block*mem.BlockSize, data)
		h.rec.EndSpan(obs.TrackCache, uint64(ack))
		return
	}
	h.back.WriteBlock(now, block*mem.BlockSize, data)
}

// Read performs a timed read of len(buf) bytes at addr. The range must not
// cross a cache-block boundary.
//
//thynvm:hotpath
func (h *Hierarchy) Read(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	//thynvm:allow-alloc checkRange allocates only on the out-of-range panic path
	if err := checkRange(addr, len(buf)); err != nil {
		panic(err)
	}
	blk := h.scratch[:]
	if len(h.levels) == 0 {
		done := h.back.ReadBlock(now, mem.BlockAlign(addr), blk)
		copy(buf, blk[addr-mem.BlockAlign(addr):])
		return done
	}
	block := mem.BlockIndex(addr)
	done := h.fetch(now, 0, block, blk)
	copy(buf, blk[addr%mem.BlockSize:])
	return done
}

// Write performs a timed write of data at addr (write-allocate, write-back).
// The range must not cross a cache-block boundary.
//
//thynvm:hotpath
func (h *Hierarchy) Write(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	//thynvm:allow-alloc checkRange allocates only on the out-of-range panic path
	if err := checkRange(addr, len(data)); err != nil {
		panic(err)
	}
	if len(h.levels) == 0 {
		// No caches: read-modify-write the block directly in memory.
		base := mem.BlockAlign(addr)
		blk := h.scratch[:]
		done := h.back.ReadBlock(now, base, blk)
		copy(blk[addr-base:], data)
		return h.back.WriteBlock(done, base, blk)
	}
	block := mem.BlockIndex(addr)
	l1 := h.levels[0]
	now += l1.spec.HitLat
	i := l1.lookup(block)
	if i < 0 {
		// Write-allocate: fetch the block, then modify in L1.
		l1.stats.Misses++
		blk := h.scratch[:]
		done := h.fetch(now, 1, block, blk)
		i = h.install(done, 0, block, blk)
		now = done
	} else {
		l1.stats.Hits++
	}
	copy(l1.data[i][addr%mem.BlockSize:], data)
	h.setDirty(l1, i, true)
	h.tick++
	l1.used[i] = h.tick
	return now
}

func checkRange(addr uint64, n int) error {
	if n <= 0 || n > mem.BlockSize {
		return fmt.Errorf("cache: access size %d out of range", n)
	}
	if mem.BlockAlign(addr) != mem.BlockAlign(addr+uint64(n)-1) {
		return fmt.Errorf("cache: access at %#x size %d crosses a block boundary", addr, n)
	}
	return nil
}

// FlushDirty writes every dirty block in the hierarchy down to the backend
// and marks the lines clean without invalidating them (CLWB-like, as the
// paper specifies to preserve locality after a checkpoint). It returns the
// cycle at which the last flush write was issued and the number of blocks
// flushed. perBlockIssue is the pipeline cost charged to issue each flush.
func (h *Hierarchy) FlushDirty(now mem.Cycle, perBlockIssue mem.Cycle) (mem.Cycle, int) {
	flushed := 0
	// Upper levels hold the newest data; flushing a block from an upper
	// level supersedes stale dirty copies below, so clean those too.
	// Ascending bits of a level's bitmap are its lines in (set, way) order.
	for li, l := range h.levels {
		for wi := range l.dirty {
			for l.dirty[wi] != 0 {
				i := wi*64 + bits.TrailingZeros64(l.dirty[wi])
				block := l.tags[i] - 1
				now += perBlockIssue
				now = h.back.WriteBlock(now, block*mem.BlockSize, l.data[i][:])
				h.setDirty(l, i, false)
				l.stats.Flushed++
				flushed++
				h.syncBelow(li, block, l.data[i][:])
			}
		}
	}
	return now, flushed
}

// syncBelow refreshes copies of block in levels below li with the just-
// flushed data and cleans them. Leaving them stale would let a later
// lower-level hit (after the upper copy is silently evicted) serve old
// data.
func (h *Hierarchy) syncBelow(li int, block uint64, data []byte) {
	for lj := li + 1; lj < len(h.levels); lj++ {
		l := h.levels[lj]
		if i := l.lookup(block); i >= 0 {
			copy(l.data[i][:], data)
			h.setDirty(l, i, false)
		}
	}
}

// PeekOverlay overlays the hierarchy's cached copy of the block at base
// (block-aligned) onto buf, if any level holds it, without disturbing
// timing or replacement state. Upper levels hold the newest data, so the
// first hit wins. Verification-only.
func (h *Hierarchy) PeekOverlay(base uint64, buf []byte) {
	block := base / mem.BlockSize
	for _, l := range h.levels {
		if i := l.lookup(block); i >= 0 {
			copy(buf, l.data[i][:])
			return
		}
	}
}

// InvalidateAll drops all cached state (a crash: caches are volatile).
func (h *Hierarchy) InvalidateAll() {
	for _, l := range h.levels {
		clear(l.tags)
		clear(l.dirty)
	}
	h.dirty = 0
}

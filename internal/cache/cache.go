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

// linesPerPage is the number of lines whose data shares one 4 KiB page.
const linesPerPage = 64

// page holds the data of linesPerPage lines.
type page [linesPerPage][mem.BlockSize]byte

// level is one set-associative cache. Its tags and dirty bitmap are flat
// arrays indexed by line = set*ways+way; line data lives in pages that are
// allocated as lines are first installed, so a level costs what it holds.
type level struct {
	spec    LevelSpec
	setMask uint64   // sets-1; the set count is a power of two
	wayBits uint     // log2(ways)
	wayMask uint64   // ways-1
	tags    []uint64 // block+1 per line; 0 marks an invalid line
	dirty   []uint64 // dirty bitmap, bit i%64 of word i/64 for line i
	// order[s] lists set s's ways in recency order, 4 bits per way: nibble
	// k is the way of recency rank k, the low nibble the most recently
	// used. The ways are a permutation of the low nibbles from the start.
	order []uint64
	// slot[i] is 1 + line i's row among the pages (row r is
	// pages[r/linesPerPage][r%linesPerPage]), 0 until i is first installed.
	// Rows are handed out in install order and survive InvalidateAll.
	slot  []uint32
	pages []*page
	rows  uint32 // rows handed out
	stats LevelStats
}

// freshOrder is the recency word of a fresh set: way k at rank k.
const freshOrder = 0xFEDCBA9876543210

// newLevel builds an empty level; NewHierarchy has checked its geometry.
func newLevel(spec LevelSpec, nsets int) *level {
	lines := nsets * spec.Ways
	l := &level{spec: spec,
		setMask: uint64(nsets - 1),
		wayBits: uint(bits.TrailingZeros(uint(spec.Ways))),
		wayMask: uint64(spec.Ways - 1),
		tags:    make([]uint64, lines),
		dirty:   make([]uint64, (lines+63)/64),
		order:   make([]uint64, nsets),
		slot:    make([]uint32, lines),
		pages:   make([]*page, 0, (lines+linesPerPage-1)/linesPerPage),
	}
	for s := range l.order {
		l.order[s] = freshOrder
	}
	return l
}

// isDirty reports line i's dirty bit.
func (l *level) isDirty(i int) bool { return l.dirty[uint(i)/64]>>(uint(i)%64)&1 != 0 }

// data returns line i's block; i must have been installed at least once.
func (l *level) data(i int) *[mem.BlockSize]byte {
	r := l.slot[i] - 1
	return &l.pages[r/linesPerPage][r%linesPerPage]
}

// lookup returns the line holding block, or -1.
//
//thynvm:hotpath
func (l *level) lookup(block uint64) int {
	base := int(block&l.setMask) << l.wayBits
	for w, tag := range l.tags[base : base+l.spec.Ways] {
		if tag == block+1 {
			return base + w
		}
	}
	return -1
}

// touch makes line i the most recently used way of its set: the way's
// nibble moves to the low end of the set's recency word, and the nibbles
// below its old place shift up one rank. It sits on every hit, so it is
// written to stay inlinable (the word is reached through a pointer, the
// way mask is a field).
func (l *level) touch(i int) {
	o := &l.order[uint(i)>>l.wayBits]
	w := uint64(i) & l.wayMask
	if *o&0xF == w {
		return
	}
	// b is bit 3 of the lowest nibble equal to w (the SWAR zero-nibble
	// test on o^w; its false positives lie only above the lowest match).
	x := *o ^ w*0x1111111111111111
	b := (x - 0x1111111111111111) &^ x & 0x8888888888888888
	b &= -b
	*o = *o&^(b<<1-1) | (*o&(b>>3-1))<<4 | w
}

// victim picks the replacement line in block's set: the first invalid way
// if one exists, else the least recently used way. Only install makes a
// line valid and it touches the line, so when every way is valid each has
// been touched since the last InvalidateAll and the recency word ranks
// exactly those touches.
func (l *level) victim(block uint64) int {
	s := int(block & l.setMask)
	base := s << l.wayBits
	for w, tag := range l.tags[base : base+l.spec.Ways] {
		if tag == 0 {
			return base + w
		}
	}
	return base + int(l.order[s]>>(4*l.wayMask)&0xF)
}

// Hierarchy is a multi-level write-back, write-allocate cache hierarchy in
// front of a Backend.
type Hierarchy struct {
	levels []*level
	back   Backend
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
		// A level's set index is a mask and its recency word holds one
		// nibble per way, so both counts are powers of two and at most 16
		// ways, and the size is exactly sets*ways blocks.
		nsets := 0
		if s.Ways > 0 {
			nsets = s.SizeB / (s.Ways * mem.BlockSize)
		}
		if s.Ways <= 0 || s.Ways > 16 || s.Ways&(s.Ways-1) != 0 ||
			nsets <= 0 || nsets&(nsets-1) != 0 || s.SizeB != nsets*s.Ways*mem.BlockSize {
			panic(fmt.Sprintf("cache: invalid level spec %+v", s))
		}
		h.levels = append(h.levels, newLevel(s, nsets))
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
		l.touch(i)
		copy(buf, l.data(i)[:])
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
// A line installed for the first time gets the level's next data row.
//
//thynvm:hotpath
func (h *Hierarchy) install(now mem.Cycle, li int, block uint64, data []byte) int {
	l := h.levels[li]
	v := l.victim(block)
	if l.isDirty(v) {
		l.stats.Writebacks++
		h.setDirty(l, v, false)
		h.writeBelow(now, li, l.tags[v]-1, l.data(v)[:])
	}
	if l.slot[v] == 0 {
		if l.rows%linesPerPage == 0 {
			//thynvm:allow-alloc a level pages its line data in on first install: at most one 4 KiB page per 64 lines over its lifetime, into a slice sized up front
			l.pages = append(l.pages, new(page))
		}
		l.rows++
		l.slot[v] = l.rows
	}
	l.tags[v] = block + 1
	l.touch(v)
	copy(l.data(v)[:], data)
	return v
}

// writeBelow delivers a dirty block evicted from level li to level li+1
// (updating in place if present, else installing) or to the backend.
func (h *Hierarchy) writeBelow(now mem.Cycle, li int, block uint64, data []byte) {
	for lj := li + 1; lj < len(h.levels); lj++ {
		l := h.levels[lj]
		if i := l.lookup(block); i >= 0 {
			copy(l.data(i)[:], data)
			h.setDirty(l, i, true)
			l.touch(i)
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
	copy(l1.data(i)[addr%mem.BlockSize:], data)
	h.setDirty(l1, i, true)
	l1.touch(i)
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
				now = h.back.WriteBlock(now, block*mem.BlockSize, l.data(i)[:])
				h.setDirty(l, i, false)
				l.stats.Flushed++
				flushed++
				h.syncBelow(li, block, l.data(i)[:])
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
			copy(l.data(i)[:], data)
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
			copy(buf, l.data(i)[:])
			return
		}
	}
}

// InvalidateAll drops all cached state (a crash: caches are volatile). Line
// data rows and the recency words stay: an invalid line's data is never
// read, and a set evicts only once every way has been reinstalled.
func (h *Hierarchy) InvalidateAll() {
	for _, l := range h.levels {
		clear(l.tags)
		clear(l.dirty)
	}
	h.dirty = 0
}

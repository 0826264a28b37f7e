package mem

import (
	"encoding/binary"
	"math/bits"

	"thynvm/internal/radix"
)

// This file is the storage-level half of the media-fault model: optional
// per-block checksums on the NVM data region (integrity mode), a scrub
// walk that verifies them incrementally, and deterministic seeded fault
// injection — bit-rot on idle chunks and dead (uncorrectable) chunks.
// Faults mutate raw chunk bytes, and checksums live beside the chunks.
//
// The threat model split: WriteFault/CrashFault (device.go) model the
// write path lying at persist time; the media model here corrupts data
// *at rest*, after it was stored correctly. Injection deliberately
// bypasses checksum maintenance — that is the point: integrity mode
// exists to catch exactly the mutations that did not come through Write.

// blocksPerChunk is the number of checksum granules per storage chunk.
const blocksPerChunk = storageChunk / BlockSize

// deadPoison is the byte pattern a dead chunk returns on every read: the
// simulated equivalent of an uncorrectable media error surfaced as poison
// data. It is deliberately non-zero so unverified consumers fail loudly.
const deadPoison = 0xDE

// IntegrityCounters aggregates the observable side of integrity mode.
type IntegrityCounters struct {
	ReadFailures  uint64 // checksum mismatches seen by verified reads
	ScrubChecks   uint64 // blocks verified by scrub walks
	ScrubFailures uint64 // checksum mismatches found by scrub walks
	DeadChunks    uint64 // chunks currently marked uncorrectable
}

// integrityState carries per-block checksums and media-fault state,
// metadata parallel to the chunks.
type integrityState struct {
	sums radix.Table[*[blocksPerChunk]uint64] // per chunk: its blocks' Checksum sums
	dead radix.Table[bool]                    // chunk base -> uncorrectable

	zeroSum uint64 // checksum of an all-zero block
	cursor  uint64 // next chunk base the incremental scrub visits

	counters IntegrityCounters
}

// Checksum is XXH64 with seed 0: the integrity layer's per-block sum, and
// the checksum every commit record and metadata blob carries
// (internal/commit). It reads eight bytes at a time: four lanes each take
// every fourth word of the 32-byte stripes through a multiply-rotate
// round, the lanes merge, the tail words and bytes fold in, and the
// length and a final avalanche finish it.
func Checksum(b []byte) uint64 {
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		p1 := prime1 // a variable, so the lane seeds wrap
		v1, v2, v3, v4 := p1+prime2, prime2, uint64(0), -p1
		for ; len(b) >= 32; b = b[32:] {
			v1 = sumRound(v1, le64(b[0:8]))
			v2 = sumRound(v2, le64(b[8:16]))
			v3 = sumRound(v3, le64(b[16:24]))
			v4 = sumRound(v4, le64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = sumMerge(h, v1)
		h = sumMerge(h, v2)
		h = sumMerge(h, v3)
		h = sumMerge(h, v4)
	} else {
		h = prime5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= sumRound(0, le64(b[:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b[:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Checksum's multipliers (XXH64's primes).
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// le64 loads eight little-endian bytes.
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// sumRound mixes one input word into a Checksum lane.
func sumRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

// sumMerge folds a finished lane into the running sum.
func sumMerge(h, v uint64) uint64 {
	return (h^sumRound(0, v))*prime1 + prime4
}

// EnableIntegrity switches the storage into integrity mode: every Write
// maintains a checksum per BlockSize granule, reads covering whole blocks
// verify them, and ScrubStep/VerifyRange walk them on demand. Contents
// already present are summed now, so enabling is safe at any point before
// faults are injected.
func (s *Storage) EnableIntegrity() {
	if s.integ != nil {
		return
	}
	st := &integrityState{zeroSum: Checksum(zeroChunk[:BlockSize])}
	s.integ = st
	s.chunks.Scan(func(base uint64, c *chunk) bool {
		st.resum(base, c)
		return true
	})
}

// IntegrityEnabled reports whether the storage maintains block checksums.
func (s *Storage) IntegrityEnabled() bool { return s.integ != nil }

// IntegrityCounters returns a copy of the integrity-mode counters.
func (s *Storage) IntegrityCounters() IntegrityCounters {
	if s.integ == nil {
		return IntegrityCounters{}
	}
	return s.integ.counters
}

// sumsFor returns (allocating if needed) the checksum array of one chunk.
func (st *integrityState) sumsFor(base uint64) *[blocksPerChunk]uint64 {
	slot := st.sums.Ref(base)
	if *slot == nil {
		sums := new([blocksPerChunk]uint64)
		for i := range sums {
			sums[i] = st.zeroSum
		}
		*slot = sums
	}
	return *slot
}

// resum recomputes every block checksum of one chunk from its contents.
func (st *integrityState) resum(base uint64, c *chunk) {
	sums := st.sumsFor(base)
	for i := range sums {
		sums[i] = Checksum(c[i*BlockSize : (i+1)*BlockSize])
	}
}

// integWrite is the integrity-mode write path: store the bytes, then
// refresh the checksums of every block the write touched. It replaces the
// hot-path fast paths with a plain chunk walk — integrity mode trades a
// bounded slowdown for end-to-end verification.
func (s *Storage) integWrite(addr uint64, data []byte) {
	st := s.integ
	for len(data) > 0 {
		base := addr / storageChunk
		off := int(addr % storageChunk)
		n := storageChunk - off
		if n > len(data) {
			n = len(data)
		}
		slot := s.chunks.Ref(base)
		if *slot == nil {
			*slot = newChunk()
		}
		c := *slot
		copy(c[off:off+n], data[:n])
		sums := st.sumsFor(base)
		for b := off / BlockSize; b*BlockSize < off+n; b++ {
			sums[b] = Checksum(c[b*BlockSize : (b+1)*BlockSize])
		}
		data = data[n:]
		addr += uint64(n)
	}
}

// integRead is the integrity-mode read path: read the bytes, overlay dead
// chunk poison, and verify the checksum of every whole block the read
// covers (partial blocks are left to the scrub walk). Mismatches are
// counted, not failed — the device read already returned; the controller
// observes the counter and the scrub confirms.
func (s *Storage) integRead(addr uint64, buf []byte) {
	st := s.integ
	pos := 0
	a := addr
	for pos < len(buf) {
		base := a / storageChunk
		off := int(a % storageChunk)
		n := storageChunk - off
		if n > len(buf)-pos {
			n = len(buf) - pos
		}
		if dead, _ := st.dead.Get(base); dead {
			for i := pos; i < pos+n; i++ {
				buf[i] = deadPoison
			}
			st.counters.ReadFailures++
		} else if c, ok := s.chunks.Get(base); ok {
			copy(buf[pos:pos+n], c[off:off+n])
			sums := st.sumsFor(base)
			first := (off + BlockSize - 1) / BlockSize
			last := (off + n) / BlockSize
			for b := first; b < last; b++ {
				if Checksum(c[b*BlockSize:(b+1)*BlockSize]) != sums[b] {
					st.counters.ReadFailures++
				}
			}
		} else {
			copy(buf[pos:pos+n], zeroChunk[:n])
		}
		pos += n
		a += uint64(n)
	}
}

// VerifyRange checks every block checksum of touched chunks intersecting
// [lo, hi) and returns the block addresses that fail — a dead chunk fails
// wholesale. It does not advance the scrub cursor.
func (s *Storage) VerifyRange(lo, hi uint64) []uint64 {
	if s.integ == nil {
		return nil
	}
	st := s.integ
	var fails []uint64
	s.chunks.Scan(func(base uint64, c *chunk) bool {
		cLo, cHi := base*storageChunk, (base+1)*storageChunk
		if cHi <= lo || cLo >= hi {
			return true
		}
		fails = st.verifyChunk(base, c, fails)
		return true
	})
	// Dead chunks may sit outside the touched set view (heap chunks always
	// exist once written, but be robust): fold in any in range not counted.
	st.dead.Scan(func(base uint64, d bool) bool {
		if !d {
			return true
		}
		cLo := base * storageChunk
		if cLo+storageChunk <= lo || cLo >= hi {
			return true
		}
		if _, ok := s.chunks.Get(base); !ok {
			st.counters.ScrubFailures++
			fails = append(fails, cLo)
		}
		return true
	})
	return fails
}

// verifyChunk scrubs one chunk, appending failing block addresses.
func (st *integrityState) verifyChunk(base uint64, c *chunk, fails []uint64) []uint64 {
	if dead, _ := st.dead.Get(base); dead {
		st.counters.ScrubChecks += blocksPerChunk
		st.counters.ScrubFailures++
		return append(fails, base*storageChunk)
	}
	sums := st.sumsFor(base)
	for b := 0; b < blocksPerChunk; b++ {
		st.counters.ScrubChecks++
		if Checksum(c[b*BlockSize:(b+1)*BlockSize]) != sums[b] {
			st.counters.ScrubFailures++
			fails = append(fails, base*storageChunk+uint64(b)*BlockSize)
		}
	}
	return fails
}

// ScrubStep advances the idle-cycle scrub walk by up to budget chunks
// below limit (the data-region boundary), wrapping at the end. It returns
// the chunks scanned and the block addresses that failed verification.
func (s *Storage) ScrubStep(budget int, limit uint64) (scanned int, fails []uint64) {
	if s.integ == nil || budget <= 0 {
		return 0, nil
	}
	st := s.integ
	start := st.cursor
	wrapped := false
	for scanned < budget {
		advanced := false
		s.chunks.Scan(func(base uint64, c *chunk) bool {
			if base < st.cursor || base*storageChunk >= limit {
				return true
			}
			fails = st.verifyChunk(base, c, fails)
			st.cursor = base + 1
			scanned++
			advanced = true
			return scanned < budget
		})
		if !advanced {
			if wrapped {
				break
			}
			st.cursor = 0
			wrapped = true
			if start == 0 {
				break
			}
		}
	}
	return scanned, fails
}

// splitmix64 advances a seeded deterministic PRNG state and returns the
// next value; the storage-level media model must not depend on global
// randomness (campaign replays are byte-identical).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d082a52d273456
	return z ^ (z >> 31)
}

// touchedBases snapshots the touched chunk bases in ascending order, the
// deterministic sample space for fault placement.
func (s *Storage) touchedBases() []uint64 {
	bases := make([]uint64, 0, s.chunks.Len())
	s.chunks.Scan(func(base uint64, _ *chunk) bool {
		bases = append(bases, base)
		return true
	})
	return bases
}

// InjectBitRot flips count bits at seeded-deterministic positions inside
// touched chunks, mutating raw chunk bytes directly — bypassing checksum
// maintenance, as real bit-rot would. It returns the block addresses hit.
// A no-op on an untouched storage.
func (s *Storage) InjectBitRot(seed uint64, count int) []uint64 {
	bases := s.touchedBases()
	if len(bases) == 0 {
		return nil
	}
	state := seed
	hit := make([]uint64, 0, count)
	for i := 0; i < count; i++ {
		base := bases[splitmix64(&state)%uint64(len(bases))]
		bit := splitmix64(&state) % (storageChunk * 8)
		c, ok := s.chunks.Get(base)
		if !ok {
			continue
		}
		c[bit/8] ^= 1 << (bit % 8)
		hit = append(hit, base*storageChunk+BlockAlign(bit/8))
	}
	return hit
}

// InjectDeadChunks marks count seeded-deterministically chosen touched
// chunks as uncorrectable: every subsequent read returns poison bytes and
// every scrub reports them. Writes do not revive a dead chunk (stuck
// cells). Returns the chunk base addresses killed. Requires integrity
// mode (the poison overlay lives on the verified read path).
func (s *Storage) InjectDeadChunks(seed uint64, count int) []uint64 {
	if s.integ == nil {
		return nil
	}
	bases := s.touchedBases()
	if len(bases) == 0 {
		return nil
	}
	state := seed
	hit := make([]uint64, 0, count)
	for i := 0; i < count; i++ {
		base := bases[splitmix64(&state)%uint64(len(bases))]
		if dead, _ := s.integ.dead.Get(base); !dead {
			s.integ.dead.Set(base, true)
			s.integ.counters.DeadChunks++
			hit = append(hit, base*storageChunk)
		}
	}
	return hit
}

// Package commit is the crash-consistency metadata shared by every scheme
// that commits checkpoint generations to NVM: the ThyNVM controller and the
// journaling and shadow-paging baselines (DESIGN.md §13).
//
// A scheme commits generation seq by writing a blob (whatever its recovery
// needs) into one of K rotating areas, then a checksummed 64-byte header
// naming that blob into header slot seq mod K — a more robust realization of
// the paper's atomic "checkpoint complete" bit. Before any write that
// destroys bytes an older generation's image depends on, it durably raises
// the generation-safety floor (the guard). Recovery scans the K slots and
// restores the newest generation whose header and blob both verify, walking
// back past damaged ones only as far as the floor proves safe.
//
// This package owns what the schemes share: the metadata page's layout, the
// header and guard codecs, the guard raise, the slot scan with its damage
// attribution, and the verdict table. Each scheme keeps only its own logic:
// what a blob holds, how its commits are ordered, and how a recovered
// generation is applied.
package commit

import (
	"encoding/binary"
	"errors"
	"fmt"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

const (
	// RecordSize is the size of one metadata record: a commit header or
	// the guard.
	RecordSize = mem.BlockSize
	// MaxGenerations bounds K: the header slots and the guard share the
	// single metadata page right above the Home region, one record per
	// block, the guard in the last block.
	MaxGenerations = mem.BlocksPerPage - 1
)

// generations resolves a configured K; 0 means the classic ping-pong pair.
func generations(k int) int {
	if k == 0 {
		return 2
	}
	return k
}

// ValidGenerations reports whether k is a configurable K: 0 (the pair) or
// 2 through MaxGenerations.
func ValidGenerations(k int) bool {
	return k == 0 || (k >= 2 && k <= MaxGenerations)
}

// Magic is a scheme's pair of record magics. The codecs take it as a
// parameter, so each scheme keeps its own on-media bytes.
type Magic struct{ Header, Guard uint64 }

var (
	// ThyNVM marks the ThyNVM controller's records ("THYNVMHD", "THYNVMGS").
	ThyNVM = Magic{Header: 0x5448594e564d4844, Guard: 0x5448594e564d4753}
	// Baseline marks the journaling and shadow-paging baselines' records
	// ("BASEHMDR", "BASEGUAR").
	Baseline = Magic{Header: 0x42415345484d4452, Guard: 0x4241534547554152}
)

// Header is a decoded commit header: generation Seq's blob is BlobLen bytes
// at BlobAddr and checksums to BlobSum.
type Header struct{ Seq, BlobAddr, BlobLen, BlobSum uint64 }

// ErrRecord rejects a record that is shorter than RecordSize, carries
// another magic, or fails its checksum.
var ErrRecord = errors.New("commit: invalid metadata record")

var le = binary.LittleEndian

// EncodeHeader writes h as a header record into b[:RecordSize]: magic, seq,
// blob address, length and checksum, then the checksum of those 40 bytes,
// as little-endian words; the rest is zero.
func (m Magic) EncodeHeader(b []byte, h Header) {
	b = b[:RecordSize]
	clear(b)
	le.PutUint64(b[0:], m.Header)
	le.PutUint64(b[8:], h.Seq)
	le.PutUint64(b[16:], h.BlobAddr)
	le.PutUint64(b[24:], h.BlobLen)
	le.PutUint64(b[32:], h.BlobSum)
	le.PutUint64(b[40:], mem.Checksum(b[:40]))
}

// DecodeHeader validates a header record and returns its contents.
func (m Magic) DecodeHeader(b []byte) (Header, error) {
	if err := check(b, m.Header, 40); err != nil {
		return Header{}, err
	}
	return Header{
		Seq:      le.Uint64(b[8:]),
		BlobAddr: le.Uint64(b[16:]),
		BlobLen:  le.Uint64(b[24:]),
		BlobSum:  le.Uint64(b[32:]),
	}, nil
}

// EncodeGuard writes a guard record for floor into b[:RecordSize]: magic,
// floor, then the checksum of those 16 bytes; the rest is zero.
func (m Magic) EncodeGuard(b []byte, floor uint64) {
	b = b[:RecordSize]
	clear(b)
	le.PutUint64(b[0:], m.Guard)
	le.PutUint64(b[8:], floor)
	le.PutUint64(b[16:], mem.Checksum(b[:16]))
}

// DecodeGuard validates a guard record and returns its floor.
func (m Magic) DecodeGuard(b []byte) (uint64, error) {
	if err := check(b, m.Guard, 16); err != nil {
		return 0, err
	}
	return le.Uint64(b[8:]), nil
}

// check validates a record's length, its magic, and the checksum stored
// after its first n bytes.
func check(b []byte, magic uint64, n int) error {
	if len(b) < RecordSize || le.Uint64(b) != magic || le.Uint64(b[n:]) != mem.Checksum(b[:n]) {
		return ErrRecord
	}
	return nil
}

// Guard is the durable generation-safety floor: the lowest generation
// recovery may still fall back to. A scheme raises it, durably and
// monotonically, before any write that destroys data an older generation's
// image depends on (checkpoint-slot reuse, in-place journal application,
// Home consolidation) and orders that write after the raise, so a fallback
// below the floor is refused instead of recovered from overwritten bytes.
// It is on with integrity or K > 2; the classic pair without media faults
// never falls back, so it needs no floor.
type Guard struct {
	on    bool
	addr  uint64
	magic Magic
	floor uint64    // volatile mirror of the durable floor
	done  mem.Cycle // completion cycle of the latest raise
	buf   [RecordSize]byte
}

// Raise durably records floor if it exceeds the current one, issuing the
// guard write no earlier than issueAt, and returns the cycle destructive
// writes must issue after: the later of issueAt and the latest raise's
// completion. With the guard off it returns issueAt.
//
//thynvm:guard-raise
func (g *Guard) Raise(nvm *mem.Device, now, issueAt mem.Cycle, floor uint64) mem.Cycle {
	if !g.on {
		return issueAt
	}
	if floor > g.floor {
		g.magic.EncodeGuard(g.buf[:], floor)
		_, done := nvm.WriteAt(now, issueAt, g.addr, g.buf[:], mem.SrcCheckpoint)
		g.floor = floor
		g.done = max(g.done, done)
	}
	return max(issueAt, g.done)
}

// Done returns the completion cycle of the latest raise (0 before any):
// writes to a slot an earlier raise already guarded issue after it.
func (g *Guard) Done() mem.Cycle { return g.done }

// Restore sets the volatile floor to the one recovery resumes from
// (Scan.Floor after Verdict).
func (g *Guard) Restore(floor uint64) { g.floor = floor }

// area is one generation's blob area.
type area struct{ addr, size uint64 }

// Meta is one scheme's crash-consistency metadata: the K header slots at
// PhysBytes + i·RecordSize and the guard in the last block of the metadata
// page right above the Home region, then the per-generation blob areas,
// bump-allocated beyond it.
type Meta struct {
	Guard Guard
	// Seq is the sequence number of the next commit. Bump is the first free
	// address past the metadata page; blob areas and the scheme's
	// checkpoint slots are allocated from it.
	Seq, Bump uint64

	sys     string // names the scheme in refusals
	magic   Magic
	phys    uint64
	headers []uint64
	areas   []area
	store   *mem.Storage
	integ   bool
	hdr     [RecordSize]byte
}

// NewMeta lays out the metadata of a scheme over a physBytes Home region
// with k retained generations (0: the pair) on the NVM storage store, and
// enables the store's integrity layer when asked. sys prefixes the scheme's
// refusals, e.g. "core" or "baseline: journal".
func NewMeta(sys string, magic Magic, physBytes uint64, k int, integrity bool, store *mem.Storage) *Meta {
	k = generations(k)
	m := &Meta{
		sys:     sys,
		magic:   magic,
		phys:    physBytes,
		headers: make([]uint64, k),
		areas:   make([]area, k),
		store:   store,
		integ:   integrity,
	}
	for i := range m.headers {
		m.headers[i] = physBytes + uint64(i)*RecordSize
	}
	m.Guard = Guard{
		on:    integrity || k > 2,
		addr:  physBytes + mem.PageSize - RecordSize,
		magic: magic,
	}
	m.Bump = m.DataStart()
	if integrity {
		store.EnableIntegrity()
	}
	return m
}

// DataStart is the first address past the metadata page: where blob areas
// and checkpoint slots are allocated.
func (m *Meta) DataStart() uint64 { return m.phys + mem.PageSize }

// HeaderAddr returns the address of the header slot generation seq commits
// into.
func (m *Meta) HeaderAddr(seq uint64) uint64 { return m.headers[seq%uint64(len(m.headers))] }

// area returns the address of the blob area generation seq commits n bytes
// into. The area is reallocated from Bump, page-aligned and spanning n
// rounded up to whole pages, when n bytes do not fit.
func (m *Meta) area(seq, n uint64) uint64 {
	a := &m.areas[seq%uint64(len(m.areas))]
	if n > a.size {
		m.Bump = alignPage(m.Bump)
		a.addr = m.Bump
		a.size = alignPage(n)
		m.Bump += a.size
	}
	return a.addr
}

// AreaSpan returns the address and size of generation seq's blob area.
func (m *Meta) AreaSpan(seq uint64) (addr, size uint64) {
	a := m.areas[seq%uint64(len(m.areas))]
	return a.addr, a.size
}

// Header encodes the commit header of generation seq naming blob, written
// at addr, and returns the slot it belongs in with the encoded record. The
// record is the Meta's scratch buffer, valid until the next call.
func (m *Meta) Header(seq, addr uint64, blob []byte) (slot uint64, rec []byte) {
	m.magic.EncodeHeader(m.hdr[:], Header{Seq: seq, BlobAddr: addr, BlobLen: uint64(len(blob)), BlobSum: mem.Checksum(blob)})
	return m.HeaderAddr(seq), m.hdr[:]
}

// Commit commits generation Seq on nvm at cycle now: it writes blob into
// the generation's area, issued at blobAt, then the header naming it,
// issued at hdrAt or once the blob is durable, whichever is later, and
// advances Seq. It returns when the blob and when the header are durable.
func (m *Meta) Commit(nvm *mem.Device, now, blobAt, hdrAt mem.Cycle, blob []byte) (blobDone, done mem.Cycle) {
	addr := m.area(m.Seq, uint64(len(blob)))
	_, blobDone = nvm.WriteAt(now, blobAt, addr, blob, mem.SrcCheckpoint)
	slot, hdr := m.Header(m.Seq, addr, blob)
	_, done = nvm.WriteAt(now, max(hdrAt, blobDone), slot, hdr, mem.SrcCheckpoint)
	m.Seq++
	return blobDone, done
}

// Crash drops the volatile state a power failure loses: the next sequence
// number and the bump cursor (Recover restores both), the blob-area table
// (the next commits allocate fresh areas) and the guard's mirror of the
// floor (Recover restores it from the guard record).
func (m *Meta) Crash() {
	m.Seq, m.Bump = 0, m.DataStart()
	clear(m.areas)
	m.Guard.floor = 0
	m.Guard.done = 0
}

// MetadataKind is ctl.Controller.MetadataKind for the scheme: header slots
// and the guard are headers, the blob areas tables, everything else data.
func (m *Meta) MetadataKind(addr uint64) ctl.MetadataKind {
	for _, h := range m.headers {
		if addr == h {
			return ctl.MetaHeader
		}
	}
	if addr == m.Guard.addr {
		return ctl.MetaHeader
	}
	for _, a := range m.areas {
		if a.size > 0 && addr >= a.addr && addr < a.addr+a.size {
			return ctl.MetaTable
		}
	}
	return ctl.MetaNone
}

// ReadFailures samples the integrity layer's read-failure counter (zero
// with integrity off): a change across a read attributes damage to media.
func (m *Meta) ReadFailures() uint64 {
	if !m.integ {
		return 0
	}
	return m.store.IntegrityCounters().ReadFailures
}

// InHome reports whether unit idx of an n-byte granularity (a block or a
// page index a blob names) lies inside the Home region.
func (m *Meta) InHome(idx, n uint64) bool { return idx < m.phys/n }

// SlotOK reports whether n bytes at addr can be checkpoint data the scheme
// wrote: past the metadata page, not wrapping, and inside the device.
func (m *Meta) SlotOK(addr, n uint64) bool {
	return addr >= m.DataStart() && m.store.Holds(addr, n)
}

func alignPage(v uint64) uint64 { return (v + mem.PageSize - 1) &^ (mem.PageSize - 1) }

// BlobReader reads the little-endian words and byte runs of a metadata
// blob, comparing every length as uint64 so that no length a damaged or
// crafted blob claims can overflow an index. The first short read sets Err;
// reads after it return zero values.
type BlobReader struct {
	b   []byte
	off uint64
	Err error
}

// NewBlobReader returns a reader positioned at the start of blob.
func NewBlobReader(blob []byte) *BlobReader { return &BlobReader{b: blob} }

// Bytes returns the next n bytes of the blob (aliasing it).
func (r *BlobReader) Bytes(n uint64) []byte {
	if r.Err != nil {
		return nil
	}
	if n > uint64(len(r.b))-r.off {
		r.Err = fmt.Errorf("commit: blob of %d bytes truncated: %d more wanted at offset %d", len(r.b), n, r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Uint64 returns the next little-endian word.
func (r *BlobReader) Uint64() uint64 {
	if b := r.Bytes(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// Package verify provides the executable counterpart of the paper's formal
// consistency argument: an oracle that snapshots the software-visible
// memory image at epoch boundaries and checks that post-crash recovery
// reproduces exactly one of them.
package verify

import (
	"bytes"
	"fmt"
	"slices"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

// zeroBlock is the expected content of a block never written before the
// workload started: physical memory is zero-initialized.
var zeroBlock = make([]byte, mem.BlockSize)

// Snapshot is one captured memory image: the footprint's first n blocks, in
// first-touch order. A block of the verified footprint outside those n was
// first touched after this snapshot's capture — its expected content is the
// pre-workload base (zero unless loaded via LoadBase).
type Snapshot struct {
	Label string
	At    mem.Cycle // capture instant (the checkpoint's epoch boundary)

	// CommittedAt is the cycle at which this snapshot's checkpoint became
	// durable (0 = not known to have committed). Set by the harness via
	// SetCommitted once the controller reports the commit drained.
	CommittedAt mem.Cycle

	// Faulted marks a snapshot whose commit was hit by an injected
	// metadata tear: recovering to it is legitimate (the tear may have
	// landed in don't-care bytes) but it cannot serve as the "must not
	// lose" floor.
	Faulted bool

	n     int    // footprint size at capture
	image []byte // n blocks, block i the footprint's i-th first touched
}

// Oracle tracks touched blocks and captured snapshots for one workload run.
// The footprint only grows, so a block's first-touch ordinal never changes
// and every snapshot's image is a prefix, in ordinal order, of the
// footprint as it stands at a check.
type Oracle struct {
	touched map[uint64]int // block address → first-touch ordinal
	order   []uint64       // block addresses by ordinal
	base    map[uint64][]byte
	// snaps are the captured snapshots. Past its length it keeps those a
	// Reset emptied, whose structs the next captures reuse.
	snaps []*Snapshot
	cur   []byte // scratch: the current image, in ordinal order
	// slab holds snapshot images back to back: Capture carves each from
	// its free tail, and Reset rewinds it, so a reused oracle's captures
	// allocate only once the slab outgrows every earlier run.
	slab []byte
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{
		touched: make(map[uint64]int),
		base:    make(map[uint64][]byte),
	}
}

// Reset empties the oracle for another run, as New would return it. Its
// maps, slices, snapshot structs and image slab keep their memory for that
// run, so snapshots taken before the Reset must not be used after it.
func (o *Oracle) Reset() {
	clear(o.touched)
	o.order = o.order[:0]
	clear(o.base)
	o.snaps = o.snaps[:0]
	o.slab = o.slab[:0]
}

// RecordWrite marks the blocks covered by a write of n bytes at addr as
// part of the verified footprint. Zero-length writes touch nothing.
func (o *Oracle) RecordWrite(addr uint64, n int) {
	if n <= 0 {
		return
	}
	for a := mem.BlockAlign(addr); a < addr+uint64(n); a += mem.BlockSize {
		if _, ok := o.touched[a]; !ok {
			o.touched[a] = len(o.order)
			o.order = append(o.order, a)
		}
	}
}

// LoadBase records pre-workload content for the blocks covering
// [addr, addr+len(data)): the expected image of those blocks in any
// snapshot captured before they were first written. Mirror every
// LoadHome/Poke preload here; unloaded blocks default to zero.
func (o *Oracle) LoadBase(addr uint64, data []byte) {
	for len(data) > 0 {
		a := mem.BlockAlign(addr)
		b := o.base[a]
		if b == nil {
			b = make([]byte, mem.BlockSize)
			o.base[a] = b
		}
		n := copy(b[addr-a:], data)
		addr += uint64(n)
		data = data[n:]
	}
}

// TouchedBlocks returns the verified footprint in address order.
func (o *Oracle) TouchedBlocks() []uint64 {
	out := slices.Clone(o.order)
	slices.Sort(out)
	return out
}

// baseOf returns block a's pre-workload content.
func (o *Oracle) baseOf(a uint64) []byte {
	if b, ok := o.base[a]; ok {
		return b
	}
	return zeroBlock
}

// expected returns the content footprint block a must hold for the image
// to equal snapshot s: the captured image when a was touched by s's
// capture, else the pre-workload base (the block was first written after
// s was captured, so at s's instant it still held its initial content).
func (o *Oracle) expected(s *Snapshot, a uint64) []byte {
	if i := o.touched[a]; i < s.n {
		return s.image[i*mem.BlockSize : (i+1)*mem.BlockSize]
	}
	return o.baseOf(a)
}

// peekFootprint fills img, len(o.order) blocks, with the controller's
// software-visible image of the footprint in first-touch order.
func (o *Oracle) peekFootprint(c ctl.Controller, img []byte) {
	for i, a := range o.order {
		c.PeekBlock(a, img[i*mem.BlockSize:(i+1)*mem.BlockSize])
	}
}

// current peeks the controller's image of the footprint into the oracle's
// scratch slab and returns it.
func (o *Oracle) current(c ctl.Controller) []byte {
	n := len(o.order) * mem.BlockSize
	if cap(o.cur) < n {
		o.cur = make([]byte, n)
	}
	o.cur = o.cur[:n]
	o.peekFootprint(c, o.cur)
	return o.cur
}

// Capture snapshots the controller's software-visible image of all touched
// blocks; call it at the instant a checkpoint begins (post cache flush).
// It returns the snapshot index.
func (o *Oracle) Capture(c ctl.Controller, label string, at mem.Cycle) int {
	var s *Snapshot
	if k := len(o.snaps); k < cap(o.snaps) {
		s = o.snaps[:k+1][k]
	}
	if s == nil {
		s = new(Snapshot)
	}
	*s = Snapshot{Label: label, At: at, n: len(o.order), image: o.carve(len(o.order) * mem.BlockSize)}
	o.peekFootprint(c, s.image)
	o.snaps = append(o.snaps, s)
	return len(o.snaps) - 1
}

// carve returns the next n bytes of the image slab, starting a slab twice
// as large when they do not fit; the snapshots carved from the old one
// keep it.
func (o *Oracle) carve(n int) []byte {
	end := len(o.slab) + n
	if end > cap(o.slab) {
		o.slab = make([]byte, 0, max(2*cap(o.slab), n))
		end = n
	}
	img := o.slab[len(o.slab):end:end]
	o.slab = o.slab[:end]
	return img
}

// Snapshots returns the captured snapshots in capture order.
func (o *Oracle) Snapshots() []*Snapshot { return o.snaps }

// SetCommitted records that snapshot idx's checkpoint became durable at
// cycle at.
func (o *Oracle) SetCommitted(idx int, at mem.Cycle) {
	if idx >= 0 && idx < len(o.snaps) {
		o.snaps[idx].CommittedAt = at
	}
}

// MarkFaulted flags snapshot idx as possibly damaged by an injected
// metadata tear (see Snapshot.Faulted).
func (o *Oracle) MarkFaulted(idx int) {
	if idx >= 0 && idx < len(o.snaps) {
		o.snaps[idx].Faulted = true
	}
}

// MarkAllFaulted flags every snapshot: media faults landed in the durable
// image, so no commit — however cleanly it drained — is a guaranteed floor
// anymore. Recovery falling back past (or refusing) damaged generations is
// then legitimate; the recovered image must still exactly match *some*
// snapshot, which is what rules out silent corruption.
func (o *Oracle) MarkAllFaulted() {
	for _, s := range o.snaps {
		s.Faulted = true
	}
}

// Solidify clears a snapshot's Faulted flag and stamps CommittedAt: after a
// recovery verifiably reproduced it, its content is consolidated into the
// durable home region and it becomes a sound floor for later crashes.
func (o *Oracle) Solidify(idx int, at mem.Cycle) {
	if idx >= 0 && idx < len(o.snaps) {
		o.snaps[idx].Faulted = false
		if o.snaps[idx].CommittedAt == 0 || o.snaps[idx].CommittedAt > at {
			o.snaps[idx].CommittedAt = at
		}
	}
}

// PruneAfter drops every snapshot after idx — the post-crash timeline
// diverged, so snapshots the recovered run never reached are stale. Pass
// -1 to drop all.
func (o *Oracle) PruneAfter(idx int) {
	if idx < -1 {
		idx = -1
	}
	if idx+1 < len(o.snaps) {
		clear(o.snaps[idx+1:]) // a pruned snapshot is never reused
		o.snaps = o.snaps[:idx+1]
	}
}

// matches reports whether cur, the current image from current, equals
// snapshot s over the full touched footprint: s's image over the blocks
// its capture saw, the pre-workload base over the blocks touched since.
func (o *Oracle) matches(s *Snapshot, cur []byte) bool {
	if !bytes.Equal(cur[:len(s.image)], s.image) {
		return false
	}
	for i := s.n; i < len(o.order); i++ {
		if !bytes.Equal(cur[i*mem.BlockSize:(i+1)*mem.BlockSize], o.baseOf(o.order[i])) {
			return false
		}
	}
	return true
}

// Match compares the controller's current visible image against every
// snapshot (newest first) and returns the index and label of the first
// match. ok is false if no snapshot matches. The comparison covers the
// full touched footprint: a block first written after a snapshot's capture
// must have reverted to its pre-workload content for that snapshot to
// match (the footprint-soundness fix — such blocks used to be skipped,
// hiding leaked late writes).
func (o *Oracle) Match(c ctl.Controller) (idx int, label string, ok bool) {
	cur := o.current(c)
	for i := len(o.snaps) - 1; i >= 0; i-- {
		if o.matches(o.snaps[i], cur) {
			return i, o.snaps[i].Label, true
		}
	}
	return -1, "", false
}

// Diff returns a description of how the controller's current image differs
// from snapshot idx (empty when identical), for failure diagnostics. The
// output is deterministic: blocks are visited in address order.
func (o *Oracle) Diff(c ctl.Controller, idx int) []string {
	if idx < 0 || idx >= len(o.snaps) {
		return []string{fmt.Sprintf("verify: no snapshot %d", idx)}
	}
	var out []string
	buf := make([]byte, mem.BlockSize)
	for _, a := range o.TouchedBlocks() {
		want := o.expected(o.snaps[idx], a)
		c.PeekBlock(a, buf)
		if !bytes.Equal(buf, want) {
			out = append(out, fmt.Sprintf("block %#x: got %x... want %x...", a, buf[:4], want[:4]))
		}
	}
	return out
}

// NewestCommittedBefore returns the index of the newest snapshot captured
// at or before cycle at, or -1. A snapshot captured exactly at the crash
// cycle counts: its cache flush completed by then.
func (o *Oracle) NewestCommittedBefore(at mem.Cycle) int {
	best := -1
	for i, s := range o.snaps {
		if s.At <= at {
			best = i
		}
	}
	return best
}

// NewestCleanCommitted returns the index of the newest snapshot whose
// checkpoint durably committed at or before cycle at and was not faulted,
// or -1. This is the consistency floor: a crash at cycle at must never
// recover to anything older.
func (o *Oracle) NewestCleanCommitted(at mem.Cycle) int {
	best := -1
	for i, s := range o.snaps {
		if !s.Faulted && s.CommittedAt > 0 && s.CommittedAt <= at {
			best = i
		}
	}
	return best
}

// Check is the full post-recovery consistency verdict for a crash at cycle
// crashAt. hadCheckpoint is Machine.Recover's report of whether the
// controller found a committed checkpoint. On success it returns the index
// of the snapshot the recovered image reproduces; on violation a non-nil
// error describing it.
//
// The rules: recovery must reproduce some snapshot whose commit could have
// been durable at the crash (committed at or before crashAt, or faulted —
// a torn commit may still decode), and must not land below the floor (the
// newest clean commit at or before crashAt — losing that is data loss).
func (o *Oracle) Check(c ctl.Controller, crashAt mem.Cycle, hadCheckpoint bool) (int, error) {
	floor := o.NewestCleanCommitted(crashAt)
	if !hadCheckpoint {
		if floor >= 0 {
			return -1, fmt.Errorf("verify: cold start but snapshot %d (%q) committed at cycle %d <= crash %d — committed checkpoint lost",
				floor, o.snaps[floor].Label, o.snaps[floor].CommittedAt, crashAt)
		}
		// Nothing ever committed: the recovered image must be the
		// pre-workload base.
		buf := make([]byte, mem.BlockSize)
		for _, a := range o.TouchedBlocks() {
			c.PeekBlock(a, buf)
			if want := o.baseOf(a); !bytes.Equal(buf, want) {
				return -1, fmt.Errorf("verify: cold start image differs from initial content at block %#x: got %x... want %x...",
					a, buf[:4], want[:4])
			}
		}
		return -1, nil
	}
	lo := floor
	if lo < 0 {
		lo = 0
	}
	cur := o.current(c)
	checked := 0
	for i := len(o.snaps) - 1; i >= lo; i-- {
		s := o.snaps[i]
		if !s.Faulted && (s.CommittedAt == 0 || s.CommittedAt > crashAt) {
			continue // could not have been durable at the crash
		}
		checked++
		if o.matches(s, cur) {
			return i, nil
		}
	}
	if checked == 0 {
		return -1, fmt.Errorf("verify: recovery reported a checkpoint but no snapshot committed at or before crash cycle %d", crashAt)
	}
	newest := o.NewestCommittedBefore(crashAt)
	return -1, fmt.Errorf("verify: recovered image matches no durable snapshot (crash at %d, floor %d, %d candidates); diff vs newest captured (%d): %v",
		crashAt, floor, checked, newest, o.Diff(c, newest))
}

package baseline

import (
	"encoding/binary"
	"fmt"

	"thynvm/internal/alloc"
	"thynvm/internal/commit"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/radix"
)

// Journal is the paper's journaling baseline (§5.1): a redo journal for a
// hybrid DRAM+NVM memory. A DRAM buffer collects and coalesces updated
// blocks (its table is sized like ThyNVM's BTT+PTT combined). At the end of
// each epoch the buffer is written to an NVM backup region and committed,
// then applied in place — all stop-the-world, which is where journaling's
// checkpointing overhead (Figure 8) comes from.
type Journal struct {
	ctl.Durable // the shared shell over nvm and dram (stats, telemetry, faults, recovery)

	cfg  Config
	nvm  *mem.Device
	dram *mem.Device

	dirty     radix.Table[uint64] // physical block index -> DRAM slot address
	dramBump  uint64
	freeSlots []uint64

	// Per-epoch scratch (journal blob, dirty-index work list) shares the
	// controller's epoch-arena discipline: reset wholesale after each
	// commit so steady-state epochs allocate nothing.
	epoch       alloc.EpochArena
	idxScratch  *alloc.Region[uint64]
	blobScratch *alloc.Region[byte]

	meta *commit.Meta // commit headers, journal areas, generation guard

	overflow bool
}

var _ ctl.Controller = (*Journal)(nil)

// NewJournal builds the journaling baseline.
func NewJournal(cfg Config) (*Journal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &Journal{
		cfg:  cfg,
		nvm:  mem.NewDevice(mem.NVMSpec()),
		dram: mem.NewDevice(mem.DRAMSpec()),
	}
	j.Dev, j.Vol = j.nvm, j.dram
	j.idxScratch = alloc.NewRegion[uint64](&j.epoch, cfg.JournalEntries)
	j.blobScratch = alloc.NewRegion[byte](&j.epoch, 4096)
	j.meta = commit.NewMeta("baseline: journal", commit.Baseline, cfg.PhysBytes, cfg.Generations, cfg.Integrity, j.nvm.Storage())
	return j, nil
}

func (j *Journal) allocSlot() uint64 {
	if n := len(j.freeSlots); n > 0 {
		s := j.freeSlots[n-1]
		j.freeSlots = j.freeSlots[:n-1]
		return s
	}
	s := j.dramBump
	j.dramBump += mem.BlockSize
	return s
}

// ReadBlock implements ctl.Controller.
func (j *Journal) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	ctl.CheckAccess(j.cfg.PhysBytes, addr, len(buf))
	dev, a := j.visible(addr)
	return j.BlockRead(now, dev.Read(now, a, buf))
}

// visible resolves where the software-visible copy of the block at addr
// lives: its DRAM buffer slot while buffered, else NVM home. ReadBlock and
// PeekBlock both read through it.
func (j *Journal) visible(addr uint64) (*mem.Device, uint64) {
	if slot, ok := j.dirty.Get(mem.BlockIndex(addr)); ok {
		return j.dram, slot
	}
	return j.nvm, addr
}

// WriteBlock implements ctl.Controller: updates coalesce in the DRAM buffer.
func (j *Journal) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	ctl.CheckAccess(j.cfg.PhysBytes, addr, len(data))
	idx := mem.BlockIndex(addr)
	slot, ok := j.dirty.Get(idx)
	if !ok {
		slot = j.allocSlot()
		j.dirty.Set(idx, slot)
		if j.dirty.Len() >= j.cfg.JournalEntries {
			j.overflow = true
		}
	}
	return j.QueuedWrite(now, j.dram.Write(now, slot, data, mem.SrcCPU))
}

// CheckpointDue implements ctl.Controller.
func (j *Journal) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	if j.overflow {
		return true
	}
	if !j.EpochExpired(now, j.cfg.EpochLen) {
		return false
	}
	if j.dirty.Len() == 0 && !cpuDirty {
		j.EpochStart = now
		return false
	}
	return true
}

// BeginCheckpoint implements ctl.Controller. Journaling is stop-the-world:
// the returned resume cycle is after the journal has been written,
// committed, and applied in place.
func (j *Journal) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	j.EndEpoch(now, j.Counts.Epochs, j.overflow)
	dirtyBlocks := uint64(j.dirty.Len())
	// Serialize the redo journal: CPU state + (block, data) records, in
	// deterministic block order (the table scans in ascending key order).
	idxs := j.idxScratch.Grab()
	j.dirty.Scan(func(k, _ uint64) bool {
		idxs = append(idxs, k)
		return true
	})
	idxs = j.idxScratch.Keep(idxs)

	le := binary.LittleEndian
	blob := j.blobScratch.Grab()
	blob = le.AppendUint64(blob, uint64(len(cpuState)))
	blob = append(blob, cpuState...)
	blob = le.AppendUint64(blob, uint64(len(idxs)))
	var blockBuf [mem.BlockSize]byte
	rdMax := now
	for _, idx := range idxs {
		slot, _ := j.dirty.Get(idx)
		rd := j.dram.Read(now, slot, blockBuf[:])
		if rd > rdMax {
			rdMax = rd
		}
		blob = le.AppendUint64(blob, idx)
		blob = append(blob, blockBuf[:]...)
	}
	blob = j.blobScratch.Keep(blob)

	// Write journal blob to the backup region, then the commit header.
	blobDone, commitDone := j.meta.Commit(j.nvm, now, rdMax, now, blob)

	// Apply in place (redo), ordered after the commit. In-place application
	// destroys the home bytes older generations' journals redo over, so the
	// generation-safety floor rises to the committed generation first (the
	// guard write itself ordered after the commit header, so a durable
	// floor implies a durable commit).
	applyIssue := j.meta.Guard.Raise(j.nvm, now, commitDone, j.meta.Seq-1)
	applyDone := applyIssue
	off := 8 + len(cpuState) + 8
	for _, idx := range idxs {
		copy(blockBuf[:], blob[off+8:off+8+mem.BlockSize])
		//thynvm:destroys-generation journal redo applies the committed generation over home bytes
		_, d := j.nvm.WriteAt(now, applyIssue, idx*mem.BlockSize, blockBuf[:], mem.SrcCheckpoint)
		if d > applyDone {
			applyDone = d
		}
		off += 8 + mem.BlockSize
		slot, _ := j.dirty.Get(idx)
		j.freeSlots = append(j.freeSlots, slot)
	}
	j.dirty.Clear() // retain leaves: the table refills every epoch
	j.overflow = false
	j.epoch.Reset()

	// Stop-the-world: execution resumes when everything is durable. The
	// whole journal write + apply is in-line staging on the CPU track,
	// mirrored by the drain window on the checkpoint track, so the (zero)
	// overlap is visible on the timeline.
	j.Persisted(len(blob), blobDone)
	j.Committed(applyDone)
	j.NextEpoch(applyDone, ctl.EpochMeta{DirtyBlocks: dirtyBlocks, BTTLive: dirtyBlocks})
	return applyDone
}

// Crash implements ctl.Controller.
func (j *Journal) Crash(at mem.Cycle) {
	j.nvm.Crash(at)
	j.dram.Crash(at)
	j.dirty.Reset()
	j.freeSlots = nil
	j.dramBump = 0
	j.overflow = false
	// The journal-area table and the volatile mirror of the durable
	// generation-safety floor are lost; Recover restores the floor from the
	// guard record.
	j.meta.Crash()
}

// MetadataKind implements ctl.Controller.
func (j *Journal) MetadataKind(addr uint64) ctl.MetadataKind { return j.meta.MetadataKind(addr) }

// Recover implements ctl.Controller through the shared driver
// (commit.(*Meta).Recover): redo the newest intact committed journal over
// the home region, one inline copy per record. Replay is idempotent — a
// crash mid-apply is repaired by replaying again, which is also why an
// interrupted recovery can simply run again. Damaged newer generations are
// walked past when that is provably safe (above the generation-safety
// floor); otherwise recovery refuses with a typed unrecoverable verdict
// rather than materialize a wrong image.
func (j *Journal) Recover() ([]byte, mem.Cycle, error) {
	return j.meta.Recover(&j.Durable, j.Crash, "an undecodable journal", func(blob []byte) ([]byte, []commit.Copy, error) {
		return decodeJournal(blob, j.meta)
	})
}

// decodeJournal decodes a journal blob — the length-prefixed CPU state, a
// record count, then (block index, 64 data bytes) records — into the CPU
// state and one inline copy per record (its data aliasing the blob),
// refusing any block index outside meta's Home region.
func decodeJournal(blob []byte, meta *commit.Meta) ([]byte, []commit.Copy, error) {
	r := commit.NewBlobReader(blob)
	cpu := append([]byte(nil), r.Bytes(r.Uint64())...)
	var copies []commit.Copy
	for n := r.Uint64(); n > 0 && r.Err == nil; n-- {
		idx, data := r.Uint64(), r.Bytes(mem.BlockSize)
		if r.Err == nil && !meta.InHome(idx, mem.BlockSize) {
			return nil, nil, fmt.Errorf("baseline: journal block %d outside the Home region", idx)
		}
		copies = append(copies, commit.Copy{Dst: idx * mem.BlockSize, Data: data})
	}
	if r.Err != nil {
		return nil, nil, r.Err
	}
	return cpu, copies, nil
}

// PeekBlock implements ctl.Controller, block by block.
func (j *Journal) PeekBlock(addr uint64, buf []byte) {
	for ; len(buf) > 0; addr, buf = addr+mem.BlockSize, buf[mem.BlockSize:] {
		dev, a := j.visible(addr)
		dev.Peek(a, buf[:mem.BlockSize])
	}
}

// Stats implements ctl.Controller. PeakBTTLive is the dirty table's
// occupancy at the time of the call, not a peak.
func (j *Journal) Stats() ctl.Stats {
	st := j.Durable.Stats()
	st.PeakBTTLive = uint64(j.dirty.Len())
	return st
}

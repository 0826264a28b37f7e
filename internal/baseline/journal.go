package baseline

import (
	"encoding/binary"
	"fmt"

	"thynvm/internal/alloc"
	"thynvm/internal/commit"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
	"thynvm/internal/radix"
)

// Journal is the paper's journaling baseline (§5.1): a redo journal for a
// hybrid DRAM+NVM memory. A DRAM buffer collects and coalesces updated
// blocks (its table is sized like ThyNVM's BTT+PTT combined). At the end of
// each epoch the buffer is written to an NVM backup region and committed,
// then applied in place — all stop-the-world, which is where journaling's
// checkpointing overhead (Figure 8) comes from.
type Journal struct {
	ctl.Durable // fault hooks, recovery cut and report, over nvm

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

	meta    *commit.Meta // commit headers, journal areas, generation guard
	nvmBump uint64
	seq     uint64

	epochSt  mem.Cycle
	overflow bool
	stats    ctl.Stats
	tele     ctl.EpochSampler
}

var _ ctl.Controller = (*Journal)(nil)

// NewJournal builds the journaling baseline.
func NewJournal(cfg Config) (*Journal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nvmStore, err := mem.NewBackedStorage(cfg.NVMBacking)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		cfg:  cfg,
		nvm:  mem.NewDeviceStorage(cfg.NVM, nvmStore),
		dram: mem.NewDevice(cfg.DRAM),
	}
	j.Dev = j.nvm
	j.idxScratch = alloc.NewRegion[uint64](&j.epoch, cfg.JournalEntries)
	j.blobScratch = alloc.NewRegion[byte](&j.epoch, 4096)
	j.meta = commit.NewMeta("baseline: journal", commit.Baseline, cfg.PhysBytes, cfg.Generations, cfg.Integrity, nvmStore)
	if cfg.Integrity {
		nvmStore.EnableIntegrity()
	}
	j.nvmBump = j.meta.DataStart()
	return j, nil
}

// Name identifies the system in reports.
func (j *Journal) Name() string { return "Journal" }

// LoadHome pre-loads initial data, bypassing timing.
func (j *Journal) LoadHome(addr uint64, data []byte) { j.nvm.Poke(addr, data) }

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

// ReadBlock implements ctl.Controller: buffered blocks are served from
// DRAM, everything else from NVM home.
func (j *Journal) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	checkAccess(j.cfg.PhysBytes, addr, len(buf))
	var done mem.Cycle
	if slot, ok := j.dirty.Get(mem.BlockIndex(addr)); ok {
		done = j.dram.Read(now, slot, buf)
	} else {
		done = j.nvm.Read(now, addr, buf)
	}
	if j.tele.On() {
		j.tele.Rec().Latency(obs.HistBlockRead, uint64(done-now))
	}
	return done
}

// WriteBlock implements ctl.Controller: updates coalesce in the DRAM buffer.
func (j *Journal) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	checkAccess(j.cfg.PhysBytes, addr, len(data))
	idx := mem.BlockIndex(addr)
	slot, ok := j.dirty.Get(idx)
	if !ok {
		slot = j.allocSlot()
		j.dirty.Set(idx, slot)
		if j.dirty.Len() >= j.cfg.JournalEntries {
			j.overflow = true
		}
	}
	ack := j.dram.Write(now, slot, data, mem.SrcCPU)
	j.tele.StallSpan(now, ack, obs.CauseQueueFull)
	if j.tele.On() {
		j.tele.Rec().Latency(obs.HistBlockWrite, uint64(ack-now))
	}
	return ack
}

// CheckpointDue implements ctl.Controller.
func (j *Journal) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	if j.overflow {
		return true
	}
	if now < j.epochSt || now-j.epochSt < j.cfg.EpochLen {
		return false
	}
	if j.dirty.Len() == 0 && !cpuDirty {
		j.epochSt = now
		return false
	}
	return true
}

// BeginCheckpoint implements ctl.Controller. Journaling is stop-the-world:
// the returned resume cycle is after the journal has been written,
// committed, and applied in place.
func (j *Journal) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	start := now
	epoch := j.stats.Epochs
	epochStart := j.epochSt
	forced := j.overflow
	dirtyBlocks := uint64(j.dirty.Len())
	if j.tele.On() {
		rec := j.tele.Rec()
		rec.Event(uint64(now), obs.EvEpochEnd, epoch, 0)
		if forced {
			rec.Event(uint64(now), obs.EvCkptForced, epoch, 0)
		}
		rec.Event(uint64(now), obs.EvCkptBegin, epoch, 0)
	}
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
	blobAddr := j.meta.Area(j.seq, uint64(len(blob)), &j.nvmBump)
	_, blobDone := j.nvm.WriteAt(now, rdMax, blobAddr, blob, mem.SrcCheckpoint)
	slot, header := j.meta.Header(j.seq, blobAddr, blob)
	_, commitDone := j.nvm.WriteAt(now, blobDone, slot, header, mem.SrcCheckpoint)
	committedSeq := j.seq
	j.seq++

	// Apply in place (redo), ordered after the commit. In-place application
	// destroys the home bytes older generations' journals redo over, so the
	// generation-safety floor rises to the committed generation first (the
	// guard write itself ordered after the commit header, so a durable
	// floor implies a durable commit).
	applyIssue := j.meta.Guard.Raise(j.nvm, now, commitDone, committedSeq)
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

	// Stop-the-world: execution resumes when everything is durable.
	j.stats.Epochs++
	j.stats.Commits++
	j.stats.CkptBusy += applyDone - start
	j.epochSt = applyDone
	if j.tele.On() {
		rec := j.tele.Rec()
		drain := uint64(applyDone - start)
		rec.Event(uint64(applyDone), obs.EvCkptComplete, epoch, drain)
		rec.Latency(obs.HistCkptDrain, drain)
		rec.Event(uint64(applyDone), obs.EvEpochBegin, epoch+1, 0)
		// Journaling is stop-the-world: the whole journal write + apply is
		// in-line staging on the CPU track, mirrored on the checkpoint
		// track so the (zero) overlap is visible on the timeline.
		rec.BeginSpan(obs.TrackCkpt, uint64(start), obs.SpanCkptDrain, obs.CauseCkptDrain, epoch)
		rec.BeginSpan(obs.TrackCkpt, uint64(start), obs.SpanTablePersist, obs.CauseCkptDrain, uint64(len(blob)))
		rec.EndSpan(obs.TrackCkpt, uint64(blobDone))
		rec.EndSpan(obs.TrackCkpt, uint64(applyDone))
		rec.BeginSpan(obs.TrackCPU, uint64(start), obs.SpanCkptStage, obs.CauseCkptStage, 0)
		rec.EndSpan(obs.TrackCPU, uint64(applyDone))
		rec.EndSpan(obs.TrackCPU, uint64(applyDone))
		rec.BeginSpan(obs.TrackCPU, uint64(applyDone), obs.SpanEpoch, obs.CauseExec, epoch+1)
		j.tele.Sample(ctl.EpochMeta{
			Epoch:       epoch,
			Start:       epochStart,
			End:         start,
			DirtyBlocks: dirtyBlocks,
			BTTLive:     dirtyBlocks,
			Forced:      forced,
		}, j.Stats())
	}
	return applyDone
}

// DrainCheckpoint implements ctl.Controller: checkpoints are synchronous,
// so nothing is ever draining.
func (j *Journal) DrainCheckpoint(now mem.Cycle) mem.Cycle { return now }

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
	j.nvmBump = j.meta.DataStart()
	j.seq = 0
}

// CommitAt implements ctl.Controller: journaling is stop-the-world, so
// nothing is ever draining when the harness can observe it.
func (j *Journal) CommitAt() (bool, mem.Cycle) { return false, 0 }

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
	cpu, t, err := j.meta.Recover(&j.Durable, j.Crash, "an undecodable journal", func(blob []byte) ([]byte, []commit.Copy, error) {
		return decodeJournal(blob, j.meta)
	}, j.nvmBump, &j.nvmBump, &j.seq)
	if err == nil {
		j.epochSt = t
	}
	return cpu, t, err
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
		blk := buf[:mem.BlockSize]
		if slot, ok := j.dirty.Get(mem.BlockIndex(addr)); ok {
			j.dram.Peek(slot, blk)
		} else {
			j.nvm.Peek(addr, blk)
		}
	}
}

// Stats implements ctl.Controller.
func (j *Journal) Stats() ctl.Stats {
	st := j.stats
	st.NVM = j.nvm.Stats()
	st.DRAM = j.dram.Stats()
	if uint64(j.dirty.Len()) > st.PeakBTTLive {
		st.PeakBTTLive = uint64(j.dirty.Len())
	}
	return st
}

// ResetStats implements ctl.Controller.
func (j *Journal) ResetStats() {
	j.stats = ctl.Stats{}
	j.nvm.ResetStats()
	j.dram.ResetStats()
	j.tele.Rebase(j.Stats())
}

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

// Shadow is the paper's shadow-paging baseline (§5.1): copy-on-write at
// page granularity. The first store to a page copies it from NVM into a
// DRAM buffer page (the CoW cost, on the critical path); subsequent stores
// hit DRAM. When the DRAM buffer fills or the epoch ends, dirty pages are
// flushed to fresh NVM locations (never overwriting the committed copy) and
// a page table is committed atomically — stop-the-world. Its pathology,
// which Figure 8 highlights under Random, is writing whole pages even when
// only a few blocks are dirty.
type Shadow struct {
	ctl.Durable // fault hooks, recovery cut and report, over nvm

	cfg  Config
	nvm  *mem.Device
	dram *mem.Device

	pages    radix.Table[*shadowPage]
	dramBump uint64
	freeDRAM []uint64

	// Per-epoch scratch (sorted-page snapshot, page-table blob), reset
	// wholesale after each commit; see the epoch-arena discipline in
	// internal/alloc.
	epoch       alloc.EpochArena
	pageScratch *alloc.Region[*shadowPage]
	blobScratch *alloc.Region[byte]

	meta    *commit.Meta // commit headers, page-table areas, generation guard
	nvmBump uint64
	seq     uint64

	epochSt  mem.Cycle
	lastCPU  []byte // CPU state of the most recent epoch checkpoint
	overflow bool
	stats    ctl.Stats
	tele     ctl.EpochSampler
}

type shadowPage struct {
	phys      uint64
	dramAddr  uint64 // DRAM buffer slot, or noSlot when not buffered
	homeAddr  uint64
	committed uint64 // NVM address of the committed copy (home or a slot)
	shadowA   uint64 // two NVM slots the page's flushes alternate between
	shadowB   uint64
	dirty     bool
}

var _ ctl.Controller = (*Shadow)(nil)

// NewShadow builds the shadow-paging baseline.
func NewShadow(cfg Config) (*Shadow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nvmStore, err := mem.NewBackedStorage(cfg.NVMBacking)
	if err != nil {
		return nil, err
	}
	s := &Shadow{
		cfg:  cfg,
		nvm:  mem.NewDeviceStorage(cfg.NVM, nvmStore),
		dram: mem.NewDevice(cfg.DRAM),
	}
	s.Dev = s.nvm
	s.pageScratch = alloc.NewRegion[*shadowPage](&s.epoch, cfg.DRAMPages)
	s.blobScratch = alloc.NewRegion[byte](&s.epoch, 4096)
	s.meta = commit.NewMeta("baseline: shadow", commit.Baseline, cfg.PhysBytes, cfg.Generations, cfg.Integrity, nvmStore)
	if cfg.Integrity {
		nvmStore.EnableIntegrity()
	}
	s.nvmBump = s.meta.DataStart()
	return s, nil
}

// Name identifies the system in reports.
func (s *Shadow) Name() string { return "Shadow" }

// LoadHome pre-loads initial data, bypassing timing.
func (s *Shadow) LoadHome(addr uint64, data []byte) { s.nvm.Poke(addr, data) }

func (s *Shadow) allocDRAMPage() (uint64, bool) {
	if n := len(s.freeDRAM); n > 0 {
		a := s.freeDRAM[n-1]
		s.freeDRAM = s.freeDRAM[:n-1]
		return a, true
	}
	if s.dramBump/mem.PageSize >= uint64(s.cfg.DRAMPages) {
		return 0, false
	}
	a := s.dramBump
	s.dramBump += mem.PageSize
	return a, true
}

func (s *Shadow) allocShadowSlot() uint64 {
	a := s.nvmBump
	s.nvmBump += mem.PageSize
	return a
}

func (s *Shadow) sortedPages() []*shadowPage {
	out := s.pageScratch.Grab()
	s.pages.Scan(func(_ uint64, p *shadowPage) bool {
		out = append(out, p)
		return true
	})
	return s.pageScratch.Keep(out)
}

// ReadBlock implements ctl.Controller: DRAM if buffered, else the committed
// NVM copy.
func (s *Shadow) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	checkAccess(s.cfg.PhysBytes, addr, len(buf))
	pageIdx := mem.PageIndex(addr)
	off := addr % mem.PageSize
	var done mem.Cycle
	if p, ok := s.pages.Get(pageIdx); ok && p.dramAddr != noSlot {
		done = s.dram.Read(now, p.dramAddr+off, buf)
	} else if p, ok := s.pages.Get(pageIdx); ok {
		done = s.nvm.Read(now, p.committed+off, buf)
	} else {
		done = s.nvm.Read(now, addr, buf)
	}
	if s.tele.On() {
		s.tele.Rec().Latency(obs.HistBlockRead, uint64(done-now))
	}
	return done
}

const noSlot = ^uint64(0)

// WriteBlock implements ctl.Controller: copy-on-write into the DRAM buffer.
func (s *Shadow) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	checkAccess(s.cfg.PhysBytes, addr, len(data))
	pageIdx := mem.PageIndex(addr)
	off := addr % mem.PageSize
	p, ok := s.pages.Get(pageIdx)
	if !ok {
		p = &shadowPage{
			phys:      pageIdx,
			dramAddr:  noSlot,
			homeAddr:  pageIdx * mem.PageSize,
			committed: pageIdx * mem.PageSize,
			shadowA:   s.allocShadowSlot(),
			shadowB:   s.allocShadowSlot(),
		}
		s.pages.Set(pageIdx, p)
	}
	if p.dramAddr == noSlot {
		// Copy-on-write: bring the committed page into DRAM before the
		// store can proceed — this copy is on the critical path.
		slot, ok := s.allocDRAMPage()
		if !ok {
			// DRAM buffer full: evict a clean buffered page if one
			// exists; otherwise flush dirty pages (stop-the-world, with
			// the CPU state of the last epoch boundary) and retry.
			if !s.evictClean() {
				now = s.flush(now, s.lastCPU, true)
				if !s.evictClean() {
					panic("baseline: shadow DRAM buffer still full after flush")
				}
			}
			slot, ok = s.allocDRAMPage()
			if !ok {
				panic("baseline: shadow DRAM slot missing after eviction")
			}
		}
		var pageBuf [mem.PageSize]byte
		rd := s.nvm.Read(now, p.committed, pageBuf[:])
		now = s.dram.Write(rd, slot, pageBuf[:], mem.SrcCPU)
		p.dramAddr = slot
	}
	p.dirty = true
	if uint64(s.pages.Len()) > s.stats.PeakPTTLive {
		s.stats.PeakPTTLive = uint64(s.pages.Len())
	}
	if s.dramBump/mem.PageSize >= uint64(s.cfg.DRAMPages) && len(s.freeDRAM) == 0 {
		s.overflow = true // ask for an epoch-boundary flush before we force one
	}
	ack := s.dram.Write(now, p.dramAddr+off, data, mem.SrcCPU)
	s.tele.StallSpan(now, ack, obs.CauseQueueFull)
	if s.tele.On() {
		s.tele.Rec().Latency(obs.HistBlockWrite, uint64(ack-now))
	}
	return ack
}

// flush writes every dirty page to its alternate shadow slot, commits the
// page table, and (stop-the-world) returns when everything is durable.
// Buffered pages are evicted (their DRAM slots freed) to make room.
func (s *Shadow) flush(now mem.Cycle, cpuState []byte, ckptStall bool) mem.Cycle {
	start := now
	maxDone := now
	epoch := s.stats.Epochs
	if s.tele.On() {
		rec := s.tele.Rec()
		if ckptStall {
			// Mid-epoch flush forced by DRAM-buffer pressure.
			rec.Event(uint64(now), obs.EvCkptForced, epoch, 0)
		}
		rec.Event(uint64(now), obs.EvCkptBegin, epoch, 0)
	}
	// A dirty page's flush target is the shadow slot NOT currently
	// committed — which some generation older than the previous one may
	// still reference. Overwriting it destroys those older images, so the
	// generation-safety floor rises to the previous generation first and
	// the slot writes are ordered after the raise.
	var gd mem.Cycle
	if s.seq > 0 {
		gd = s.meta.Guard.Raise(s.nvm, now, now, s.seq-1)
	}
	var pageBuf [mem.PageSize]byte
	dirty := s.sortedPages()
	for _, p := range dirty {
		if !p.dirty || p.dramAddr == noSlot {
			continue
		}
		target := p.shadowA
		if p.committed == p.shadowA {
			target = p.shadowB
		}
		rd := s.dram.Read(now, p.dramAddr, pageBuf[:])
		if gd > rd {
			rd = gd
		}
		//thynvm:destroys-generation flush reuses the uncommitted shadow slot older generations may reference
		_, done := s.nvm.WriteAt(now, rd, target, pageBuf[:], mem.SrcCheckpoint)
		if done > maxDone {
			maxDone = done
		}
		p.committed = target // staged; becomes real at commit (synchronous)
		p.dirty = false
	}
	// Commit the page table.
	le := binary.LittleEndian
	blob := s.blobScratch.Grab()
	blob = le.AppendUint64(blob, uint64(len(cpuState)))
	blob = append(blob, cpuState...)
	entries := 0
	for _, p := range s.sortedPages() {
		if p.committed != p.homeAddr {
			entries++
		}
	}
	blob = le.AppendUint64(blob, uint64(entries))
	for _, p := range s.sortedPages() {
		if p.committed != p.homeAddr {
			blob = le.AppendUint64(blob, p.phys)
			blob = le.AppendUint64(blob, p.committed)
		}
	}
	blob = s.blobScratch.Keep(blob)
	blobAddr := s.meta.Area(s.seq, uint64(len(blob)), &s.nvmBump)
	_, blobDone := s.nvm.WriteAt(now, maxDone, blobAddr, blob, mem.SrcCheckpoint)
	slot, header := s.meta.Header(s.seq, blobAddr, blob)
	_, commitDone := s.nvm.WriteAt(now, blobDone, slot, header, mem.SrcCheckpoint)
	s.seq++

	s.stats.Commits++
	if ckptStall {
		s.stats.CkptStall += commitDone - start
		// Mid-epoch flush forced by buffer pressure: the store that
		// triggered it stalls for the whole stop-the-world flush.
		s.tele.StallSpan(start, commitDone, obs.CauseWriteBuffer)
	}
	s.stats.CkptBusy += commitDone - start
	if s.tele.On() {
		drain := uint64(commitDone - start)
		rec := s.tele.Rec()
		rec.Event(uint64(commitDone), obs.EvCkptComplete, epoch, drain)
		rec.Latency(obs.HistCkptDrain, drain)
		rec.BeginSpan(obs.TrackCkpt, uint64(start), obs.SpanCkptDrain, obs.CauseCkptDrain, epoch)
		rec.BeginSpan(obs.TrackCkpt, uint64(start), obs.SpanTablePersist, obs.CauseCkptDrain, uint64(len(blob)))
		rec.EndSpan(obs.TrackCkpt, uint64(blobDone))
		rec.EndSpan(obs.TrackCkpt, uint64(commitDone))
	}
	s.epoch.Reset()
	return commitDone
}

// evictClean frees the DRAM slot of one clean buffered page (lowest page
// index first, for determinism). It reports whether a page was evicted.
func (s *Shadow) evictClean() bool {
	for _, p := range s.sortedPages() {
		if p.dramAddr != noSlot && !p.dirty {
			s.freeDRAM = append(s.freeDRAM, p.dramAddr)
			p.dramAddr = noSlot
			return true
		}
	}
	return false
}

// CheckpointDue implements ctl.Controller.
func (s *Shadow) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	if s.overflow {
		s.overflow = false
		return true
	}
	if now < s.epochSt || now-s.epochSt < s.cfg.EpochLen {
		return false
	}
	if cpuDirty {
		return true
	}
	anyDirty := false
	s.pages.Scan(func(_ uint64, p *shadowPage) bool {
		anyDirty = p.dirty
		return !anyDirty
	})
	if anyDirty {
		return true
	}
	s.epochSt = now
	return false
}

// BeginCheckpoint implements ctl.Controller: stop-the-world flush + commit.
func (s *Shadow) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	epoch := s.stats.Epochs
	epochStart := s.epochSt
	var dirtyPages uint64
	if s.tele.On() {
		s.pages.Scan(func(_ uint64, p *shadowPage) bool {
			if p.dirty && p.dramAddr != noSlot {
				dirtyPages++
			}
			return true
		})
		s.tele.Rec().Event(uint64(now), obs.EvEpochEnd, epoch, 0)
	}
	s.lastCPU = append([]byte(nil), cpuState...)
	done := s.flush(now, s.lastCPU, false)
	s.stats.Epochs++
	s.epochSt = done
	if s.tele.On() {
		rec := s.tele.Rec()
		rec.BeginSpan(obs.TrackCPU, uint64(now), obs.SpanCkptStage, obs.CauseCkptStage, 0)
		rec.EndSpan(obs.TrackCPU, uint64(done))
		rec.EndSpan(obs.TrackCPU, uint64(done))
		rec.BeginSpan(obs.TrackCPU, uint64(done), obs.SpanEpoch, obs.CauseExec, s.stats.Epochs)
		s.tele.Rec().Event(uint64(done), obs.EvEpochBegin, s.stats.Epochs, 0)
		s.tele.Sample(ctl.EpochMeta{
			Epoch:      epoch,
			Start:      epochStart,
			End:        now,
			DirtyPages: dirtyPages,
			PTTLive:    uint64(s.pages.Len()),
		}, s.Stats())
	}
	return done
}

// DrainCheckpoint implements ctl.Controller: flushes are synchronous.
func (s *Shadow) DrainCheckpoint(now mem.Cycle) mem.Cycle { return now }

// Crash implements ctl.Controller.
func (s *Shadow) Crash(at mem.Cycle) {
	s.nvm.Crash(at)
	s.dram.Crash(at)
	s.pages.Reset()
	s.freeDRAM = nil
	s.dramBump = 0
	s.lastCPU = nil
	s.overflow = false
	// The page-table-area table and the volatile mirror of the durable
	// generation-safety floor are lost; Recover restores the floor from the
	// guard record.
	s.meta.Crash()
	s.nvmBump = s.meta.DataStart()
	s.seq = 0
}

// CommitAt implements ctl.Controller: flushes are stop-the-world.
func (s *Shadow) CommitAt() (bool, mem.Cycle) { return false, 0 }

// MetadataKind implements ctl.Controller.
func (s *Shadow) MetadataKind(addr uint64) ctl.MetadataKind { return s.meta.MetadataKind(addr) }

// Recover implements ctl.Controller through the shared driver
// (commit.(*Meta).Recover): consolidate committed shadow copies into the
// home region, one slot copy per page-table entry. Restartable:
// consolidation reads committed shadow slots (never overwritten until the
// next commit) and only writes Home. Damaged newer generations are walked
// past when that is provably safe (above the generation-safety floor);
// otherwise recovery refuses with a typed unrecoverable verdict rather than
// materialize a wrong image.
func (s *Shadow) Recover() ([]byte, mem.Cycle, error) {
	cpu, t, err := s.meta.Recover(&s.Durable, s.Crash, "an undecodable page table", func(blob []byte) ([]byte, []commit.Copy, error) {
		return decodeShadow(blob, s.meta)
	}, s.nvmBump, &s.nvmBump, &s.seq)
	if err == nil {
		s.epochSt = t
	}
	return cpu, t, err
}

// decodeShadow decodes a page-table blob — the length-prefixed CPU state, a
// record count, then (page index, slot address) records — into the CPU
// state and one page copy per record, refusing any page outside meta's Home
// region or slot outside its checkpoint area.
func decodeShadow(blob []byte, meta *commit.Meta) ([]byte, []commit.Copy, error) {
	r := commit.NewBlobReader(blob)
	cpu := append([]byte(nil), r.Bytes(r.Uint64())...)
	var copies []commit.Copy
	for n := r.Uint64(); n > 0 && r.Err == nil; n-- {
		phys, slot := r.Uint64(), r.Uint64()
		if r.Err == nil && (!meta.InHome(phys, mem.PageSize) || !meta.SlotOK(slot, mem.PageSize)) {
			return nil, nil, fmt.Errorf("baseline: shadow page %d -> %#x outside the device layout", phys, slot)
		}
		copies = append(copies, commit.Copy{Dst: phys * mem.PageSize, Src: slot, Size: mem.PageSize})
	}
	if r.Err != nil {
		return nil, nil, r.Err
	}
	return cpu, copies, nil
}

// PeekBlock implements ctl.Controller, block by block.
func (s *Shadow) PeekBlock(addr uint64, buf []byte) {
	for ; len(buf) > 0; addr, buf = addr+mem.BlockSize, buf[mem.BlockSize:] {
		s.peekBlock(addr, buf[:mem.BlockSize])
	}
}

// peekBlock is PeekBlock for the one block at addr.
func (s *Shadow) peekBlock(addr uint64, buf []byte) {
	pageIdx := mem.PageIndex(addr)
	off := addr % mem.PageSize
	if p, ok := s.pages.Get(pageIdx); ok {
		if p.dramAddr != noSlot {
			s.dram.Peek(p.dramAddr+off, buf)
			return
		}
		s.nvm.Peek(p.committed+off, buf)
		return
	}
	s.nvm.Peek(addr, buf)
}

// Stats implements ctl.Controller.
func (s *Shadow) Stats() ctl.Stats {
	st := s.stats
	st.NVM = s.nvm.Stats()
	st.DRAM = s.dram.Stats()
	return st
}

// ResetStats implements ctl.Controller.
func (s *Shadow) ResetStats() {
	s.stats = ctl.Stats{}
	s.nvm.ResetStats()
	s.dram.ResetStats()
	s.tele.Rebase(s.Stats())
}

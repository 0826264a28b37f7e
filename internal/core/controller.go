package core

import (
	"thynvm/internal/alloc"
	"thynvm/internal/commit"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
	"thynvm/internal/radix"
)

// Controller is the ThyNVM memory controller: it owns the DRAM and NVM
// devices, the BTT and PTT translation tables, and the dual-scheme
// checkpointing state machine. It implements ctl.Controller.
type Controller struct {
	ctl.Durable // the shared shell over nvm and dram (stats, telemetry, faults, recovery)

	cfg  Config
	nvm  *mem.Device
	dram *mem.Device

	// The BTT and PTT are radix tables rather than maps: a translation
	// lookup happens on every simulated memory access, and the physical
	// index space is dense, so the page-table-style layout (with its MRU
	// leaf memo) beats hashing — and its ascending Scan replaces the
	// collect-and-sort passes checkpointing used for determinism.
	blocks radix.Table[*blockEntry] // BTT, keyed by physical block index
	pages  radix.Table[*pageEntry]  // PTT, keyed by physical page index

	// NVM hardware-address-space allocation beyond the Home region: the
	// commit metadata page (K header slots and the generation-safety guard,
	// see meta), then checkpoint slots and table-blob areas, bump-allocated
	// from meta.Bump.
	nvmBlocks, nvmPages   slotPool // over meta.Bump
	dramBump              uint64   // DRAM Working Data Region allocation
	dramBlocks, dramPages slotPool // over dramBump

	// meta is the commit metadata: the next sequence number, header slots,
	// table-blob areas, and the generation-safety guard, whose floor is
	// raised durably before any write that destroys data an older
	// generation depends on (integrity mode or K > 2; a no-op otherwise).
	meta *commit.Meta

	epochID     uint64
	epochStart  mem.Cycle
	overflowReq bool

	ckptInFlight     bool
	ckptEpoch        uint64 // epoch id of the in-flight checkpoint
	ckptStart        mem.Cycle
	commitDone       mem.Cycle
	homeCopyMaxDone  mem.Cycle // migration image writes the next header must follow
	execWriteMaxDone mem.Cycle // completion of exec-phase NVM working-copy writes

	pageStores     *radix.Table[uint32] // per-page store counts, current epoch
	lastPageStores *radix.Table[uint32] // counts from the epoch being checkpointed
	pageStoresFree *radix.Table[uint32] // consumed counter table, recycled at the next epoch seal

	// Per-epoch metadata scratch — checkpoint work lists, sorted-entry
	// snapshots, the serialized-table blob — lives in an epoch arena so
	// steady-state epochs allocate nothing; finalize resets it wholesale.
	epoch        alloc.EpochArena
	blockScratch *alloc.Region[*blockEntry]
	pageScratch  *alloc.Region[*pageEntry]
	hotScratch   *alloc.Region[uint64]
	brecScratch  *alloc.Region[tableRec]
	precScratch  *alloc.Region[tableRec]
	blobScratch  *alloc.Region[byte]
}

var _ ctl.Controller = (*Controller)(nil)

// New builds a ThyNVM controller from cfg.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:        cfg,
		nvm:        mem.NewDevice(mem.NVMSpec()),
		dram:       mem.NewDevice(mem.DRAMSpec()),
		pageStores: &radix.Table[uint32]{},
	}
	c.Dev, c.Vol = c.nvm, c.dram
	c.blockScratch = alloc.NewRegion[*blockEntry](&c.epoch, cfg.BTTEntries)
	c.pageScratch = alloc.NewRegion[*pageEntry](&c.epoch, cfg.PTTEntries)
	c.hotScratch = alloc.NewRegion[uint64](&c.epoch, 64)
	c.brecScratch = alloc.NewRegion[tableRec](&c.epoch, cfg.BTTEntries)
	c.precScratch = alloc.NewRegion[tableRec](&c.epoch, cfg.PTTEntries)
	c.blobScratch = alloc.NewRegion[byte](&c.epoch, 4096)
	c.meta = commit.NewMeta("core", commit.ThyNVM, cfg.PhysBytes, cfg.Generations, cfg.Integrity, c.nvm.Storage())
	c.nvmBlocks = slotPool{size: mem.BlockSize, bump: &c.meta.Bump}
	c.nvmPages = slotPool{size: mem.PageSize, bump: &c.meta.Bump}
	c.dramBlocks = slotPool{size: mem.BlockSize, bump: &c.dramBump}
	c.dramPages = slotPool{size: mem.PageSize, bump: &c.dramBump}
	return c, nil
}

// MustNew is New for known-good configs (tests, examples).
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// ---- hardware address space allocation ----

// A slotPool hands out fixed-size slots of one region: the most recently
// freed slot first, else the next slot past the region's bump pointer,
// aligned to the slot size. A region's block and page pools share its bump
// pointer.
type slotPool struct {
	size uint64
	bump *uint64
	free []uint64
}

func (p *slotPool) alloc() uint64 {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	s := (*p.bump + p.size - 1) &^ (p.size - 1)
	*p.bump = s + p.size
	return s
}

// release returns slot s to the pool; 0 means no slot.
func (p *slotPool) release(s uint64) {
	if s != 0 {
		p.free = append(p.free, s)
	}
}

// ---- entry management ----

func (c *Controller) allocBlockEntry(blockIdx uint64) *blockEntry {
	e := &blockEntry{
		phys:      blockIdx,
		homeAddr:  blockIdx * mem.BlockSize,
		altAddr:   c.nvmBlocks.alloc(),
		clastAddr: blockIdx * mem.BlockSize,
	}
	c.blocks.Set(blockIdx, e)
	c.noteBTTPressure()
	return e
}

func (c *Controller) allocOverlayEntry(blockIdx, pageIdx uint64) *blockEntry {
	e := &blockEntry{
		phys:        blockIdx,
		homeAddr:    blockIdx * mem.BlockSize,
		clastAddr:   blockIdx * mem.BlockSize,
		overlay:     true,
		overlayPage: pageIdx,
	}
	c.blocks.Set(blockIdx, e)
	c.noteBTTPressure()
	return e
}

func (c *Controller) noteBTTPressure() {
	live := c.blocks.Len()
	if uint64(live) > c.Counts.PeakBTTLive {
		c.Counts.PeakBTTLive = uint64(live)
	}
	if live > c.cfg.BTTEntries {
		c.Counts.TableSpills++
	}
	if live >= c.cfg.BTTEntries-c.cfg.WatermarkEntries {
		c.overflowReq = true
	}
}

func (c *Controller) allocPageEntry(pageIdx uint64) *pageEntry {
	e := &pageEntry{
		phys:      pageIdx,
		homeAddr:  pageIdx * mem.PageSize,
		altAddr:   c.nvmPages.alloc(),
		altAddr2:  c.nvmPages.alloc(),
		dramAddr:  c.dramPages.alloc(),
		clastAddr: pageIdx * mem.PageSize,
	}
	c.pages.Set(pageIdx, e)
	live := c.pages.Len()
	if uint64(live) > c.Counts.PeakPTTLive {
		c.Counts.PeakPTTLive = uint64(live)
	}
	if c.cfg.Mode == ModePageWriteback || c.cfg.Mode == ModePageRemap {
		// Uniform page modes allocate on demand, so they need the same
		// spill/early-checkpoint machinery the BTT has.
		if live > c.cfg.PTTEntries {
			c.Counts.TableSpills++
		}
		if live >= c.cfg.PTTEntries-c.cfg.WatermarkEntries/mem.BlocksPerPage-1 {
			c.overflowReq = true
		}
	}
	return e
}

func (c *Controller) freeBlockEntry(e *blockEntry) {
	c.blocks.Delete(e.phys)
	c.nvmBlocks.release(e.altAddr)
	c.dramBlocks.release(e.bufAddr)
}

func (c *Controller) freePageEntry(e *pageEntry) {
	c.pages.Delete(e.phys)
	c.nvmPages.release(e.altAddr)
	c.nvmPages.release(e.altAddr2)
	c.dramPages.release(e.dramAddr)
}

// lookupLatency charges the BTT/PTT lookup. Once the tables spill past
// their hardware capacity, entries live in a virtualized table in DRAM with
// hot entries cached in the controller (the paper's suggested remedy for
// large working sets); the small added latency models the average cost of
// occasional cache misses into that structure.
func (c *Controller) lookupLatency() mem.Cycle {
	lat := mem.TableLookup
	if c.blocks.Len() > c.cfg.BTTEntries || c.pages.Len() > c.cfg.PTTEntries {
		lat += mem.FromNs(4)
	}
	return lat
}

// chargeLookup advances now by the table lookup cost, attributing the
// spilled-table penalty (the portion beyond the base lookup) to BTTMiss.
func (c *Controller) chargeLookup(now mem.Cycle) mem.Cycle {
	lat := c.lookupLatency()
	if lat > mem.TableLookup {
		c.Tele.StallSpan(now+mem.TableLookup, now+lat, obs.CauseBTTMiss)
	}
	return now + lat
}

// ---- sync / access paths ----

// sync applies a completed checkpoint commit, if any.
func (c *Controller) sync(now mem.Cycle) {
	if c.ckptInFlight && now >= c.commitDone {
		c.finalize()
	}
}

// readBlock is the uninstrumented ReadBlock body (see obs.go).
func (c *Controller) readBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	ctl.CheckAccess(c.cfg.PhysBytes, addr, len(buf))
	c.sync(now)
	now = c.chargeLookup(now)
	pageIdx := mem.PageIndex(addr)
	if pe, ok := c.pages.Get(pageIdx); ok && !pe.dying {
		if c.cfg.Mode == ModePageRemap {
			off := addr - pe.homeAddr
			return c.nvm.Read(now, pe.visibleNVMAddr()+off, buf)
		}
		return c.dram.Read(now, pe.dramAddr+(addr-pe.homeAddr), buf)
	}
	if be, ok := c.blocks.Get(mem.BlockIndex(addr)); ok {
		switch {
		case be.overlay || be.dying || be.lameDuck:
			// Consolidated to Home (the copy, if still in flight, is
			// forwarded by the device).
			return c.nvm.Read(now, be.homeAddr, buf)
		case be.active == activeDRAM:
			return c.dram.Read(now, be.bufAddr, buf)
		default:
			return c.nvm.Read(now, be.visibleAddr(), buf)
		}
	}
	return c.nvm.Read(now, addr, buf)
}

// writeBlock is the uninstrumented WriteBlock body (see obs.go).
func (c *Controller) writeBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	ctl.CheckAccess(c.cfg.PhysBytes, addr, len(data))
	c.sync(now)
	now = c.chargeLookup(now)
	pageIdx := mem.PageIndex(addr)
	if c.cfg.Mode == ModeDual {
		(*c.pageStores.Ref(pageIdx))++
	}

	switch c.cfg.Mode {
	case ModePageWriteback:
		pe, ok := c.pages.Get(pageIdx)
		if !ok || pe.dying {
			pe, now = c.demandLoadPage(now, pageIdx)
		}
		return c.writeViaPage(now, pe, addr, data)
	case ModePageRemap:
		return c.writePageRemap(now, pageIdx, addr, data)
	case ModeDual:
		if pe, ok := c.pages.Get(pageIdx); ok && !pe.dying {
			return c.writeViaPage(now, pe, addr, data)
		}
		return c.writeViaBlock(now, addr, data)
	default: // ModeBlockRemap, ModeBlockWriteback
		return c.writeViaBlock(now, addr, data)
	}
}

// demandLoadPage creates a PTT entry for pageIdx and fills its DRAM slot
// from the page's currently visible NVM image (uniform page-writeback mode
// caches every touched page in DRAM).
func (c *Controller) demandLoadPage(now mem.Cycle, pageIdx uint64) (*pageEntry, mem.Cycle) {
	if old, ok := c.pages.Get(pageIdx); ok {
		// A dying entry still holds the committed image in its DRAM slot;
		// revive it. If the commit excluding it is still draining, Home
		// becomes its authoritative location and the next writeback must
		// target the alt slot; otherwise the durable header still
		// references the alt slot and nothing changes.
		old.dying = false
		old.idle = 0
		old.consolidateDone = 0
		if c.ckptInFlight {
			old.clastAddr = old.homeAddr
		}
		return old, now
	}
	pe := c.allocPageEntry(pageIdx)
	var buf [mem.PageSize]byte
	done := c.nvm.Read(now, pe.homeAddr, buf[:])
	c.dram.Write(done, pe.dramAddr, buf[:], mem.SrcCPU)
	return pe, done
}

// writeViaPage services a store to a page tracked by the page-writeback
// scheme, including the §3.4 cooperation path while the page's previous
// checkpoint is still draining.
func (c *Controller) writeViaPage(now mem.Cycle, pe *pageEntry, addr uint64, data []byte) mem.Cycle {
	off := addr - pe.homeAddr
	pe.stores = satInc16(pe.stores)
	pe.consolidateDone = 0
	if pe.ckpting && now < pe.flushDone {
		if c.cfg.Cooperation {
			// Absorb the store at block granularity: it occupies a BTT
			// entry for the overlap window and lands in the DRAM Working
			// Data Region. (The checkpoint snapshot was taken at
			// BeginCheckpoint, so the in-flight writeback is unaffected.)
			c.Counts.BufferedBlockWrites++
			blockIdx := mem.BlockIndex(addr)
			if _, ok := c.blocks.Get(blockIdx); !ok {
				c.allocOverlayEntry(blockIdx, pe.phys)
			}
			pe.dirty = true
			ack := c.dram.Write(now, pe.dramAddr+off, data, mem.SrcCPU)
			c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
			return ack
		}
		// Without cooperation the store stalls until the writeback
		// completes (this is the stall Figure 8 attributes to
		// checkpointing in single-scheme designs).
		c.Counts.CkptStall += pe.flushDone - now
		c.Tele.StallSpan(now, pe.flushDone, obs.CauseWriteBuffer)
		now = pe.flushDone
	}
	pe.dirty = true
	ack := c.dram.Write(now, pe.dramAddr+off, data, mem.SrcCPU)
	c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
	return ack
}

// writeViaBlock services a store through the block remapping scheme.
func (c *Controller) writeViaBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	blockIdx := mem.BlockIndex(addr)
	be, _ := c.blocks.Get(blockIdx)
	if be == nil {
		// Hard table bound (2x the nominal capacity — the virtualized-
		// table slack): when even the virtualized BTT is full, the store
		// waits for the in-flight checkpoint to commit so consolidated
		// entries free up. This is the paper's overflow behavior: under
		// sustained pressure execution throttles to the consolidation
		// pipeline instead of growing metadata without bound.
		for c.blocks.Len() >= 2*c.cfg.BTTEntries && c.ckptInFlight {
			if c.commitDone > now {
				c.Counts.CkptStall += c.commitDone - now
				c.Tele.StallSpan(now, c.commitDone, obs.CauseCkptDrain)
				now = c.commitDone
			}
			c.finalize()
		}
		be = c.allocBlockEntry(blockIdx)
	} else if be.overlay {
		// The page this overlay belonged to is gone; rebuild the entry as
		// a fresh block-remapping entry (its data lives in Home).
		be.overlay = false
		be.dying = false
		be.idle = 0
		be.hasCkpt = false
		be.clastAddr = be.homeAddr
		if be.altAddr == 0 {
			be.altAddr = c.nvmBlocks.alloc()
		}
	}
	be.consolidateDone = 0 // a store cancels any pending Home consolidation
	if be.lameDuck {
		// The page that consumed this block is gone; resume block-managed
		// operation. The durable header still references the alt slot, so
		// the normal first-store path (working copy to the opposite slot,
		// i.e. Home) is safe; the Home image write, if still in flight,
		// is ordered before the new store by same-bank serialization.
		be.lameDuck = false
		be.idle = 0
	}
	revived := false
	if be.dying && !be.overlay {
		be.dying = false
		be.idle = 0
		if c.ckptInFlight {
			// The in-flight commit excludes this entry and will make Home
			// its authoritative location, while the durable header still
			// references the alt slot — neither NVM slot may be
			// overwritten until that commit applies. The new working copy
			// is buffered in DRAM and the entry's committed location
			// becomes Home.
			be.clastAddr = be.homeAddr
			revived = true
		}
		// Otherwise the durable header still includes the entry (its decay
		// was decided at the last finalize); the normal path below writes
		// the working copy to Home, ordered after the consolidation copy
		// by same-bank serialization.
	}
	be.stores = satInc16(be.stores)

	switch be.active {
	case activeDRAM:
		ack := c.dram.Write(now, be.bufAddr, data, mem.SrcCPU)
		c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
		return ack
	case activeNVM:
		// Later stores reuse the slot the first store already guarded;
		// they only need to issue after the floor raise is durable.
		ack, done := c.nvm.WriteAt(now, c.meta.Guard.Done(), be.wAddr(), data, mem.SrcCPU)
		if done > c.execWriteMaxDone {
			c.execWriteMaxDone = done
		}
		c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
		return ack
	}
	// First store of the epoch to this block.
	if (c.ckptInFlight && (be.ckpting || revived)) || c.cfg.Mode == ModeBlockWriteback {
		// The slot the working copy would occupy still backs the durable
		// last checkpoint (its new checkpoint has not committed), so the
		// working copy goes to the DRAM Working Data Region instead
		// (§4.1) — or, in uniform block-writeback mode, always.
		if be.bufAddr == 0 {
			be.bufAddr = c.dramBlocks.alloc()
		}
		be.active = activeDRAM
		if c.cfg.Mode != ModeBlockWriteback {
			c.Counts.BufferedBlockWrites++
		}
		ack := c.dram.Write(now, be.bufAddr, data, mem.SrcCPU)
		c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
		return ack
	}
	be.active = activeNVM
	// The first store of the epoch claims the slot opposite the last
	// checkpoint, destroying what older generations kept there: raise the
	// generation-safety floor first (no-op with the guard off).
	gd := c.guardIssue(now, be.idle)
	//thynvm:destroys-generation first store of the epoch reuses the slot opposite the last checkpoint
	ack, done := c.nvm.WriteAt(now, gd, be.wAddr(), data, mem.SrcCPU)
	if done > c.execWriteMaxDone {
		c.execWriteMaxDone = done
	}
	c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
	return ack
}

// writePageRemap services a store in ModePageRemap (Table 1 option ④):
// page-granularity remapping in NVM. The first store to a page each epoch
// pays a blocking whole-page copy to the new working location.
func (c *Controller) writePageRemap(now mem.Cycle, pageIdx uint64, addr uint64, data []byte) mem.Cycle {
	pe, _ := c.pages.Get(pageIdx)
	revived := false
	if pe == nil {
		pe = c.allocPageEntry(pageIdx)
	} else if pe.dying {
		// See writeViaBlock: while the commit excluding this entry drains,
		// neither NVM slot is writable, so the remap below first waits for
		// it; afterwards Home is its authoritative location.
		pe.dying = false
		pe.idle = 0
		if c.ckptInFlight {
			pe.clastAddr = pe.homeAddr
			revived = true
		}
	}
	pe.stores = satInc16(pe.stores)
	pe.consolidateDone = 0
	off := addr - pe.homeAddr
	if !pe.remapActive {
		if c.ckptInFlight && (pe.ckpting || revived) {
			// The target slot still backs the durable checkpoint; the
			// store must wait for the in-flight commit.
			if c.commitDone > now {
				c.Counts.CkptStall += c.commitDone - now
				c.Tele.StallSpan(now, c.commitDone, obs.CauseCkptDrain)
				now = c.commitDone
			}
			c.finalize()
		}
		// Remap on the critical path: copy the whole page to the new
		// working location before the store can proceed (§2.3's "slow
		// remapping"). The target slot is the one opposite the last
		// checkpoint — guard the generations that still reference it.
		gd := c.guardIssue(now, pe.idle)
		var buf [mem.PageSize]byte
		rdone := c.nvm.Read(now, pe.visibleNVMAddr(), buf[:])
		var cpDone mem.Cycle
		//thynvm:destroys-generation page remap copies into the slot opposite the last checkpoint
		now, cpDone = c.nvm.WriteAt(rdone, gd, pe.wAddr(), buf[:], mem.SrcCheckpoint)
		if cpDone > c.execWriteMaxDone {
			c.execWriteMaxDone = cpDone
		}
		pe.remapActive = true
		pe.dirty = true
	}
	ack, done := c.nvm.WriteAt(now, c.meta.Guard.Done(), pe.wAddr()+off, data, mem.SrcCPU)
	if done > c.execWriteMaxDone {
		c.execWriteMaxDone = done
	}
	c.Tele.StallSpan(now, ack, obs.CauseQueueFull)
	return ack
}

// PeekBlock implements ctl.Controller: untimed read of the software-visible
// version, block by block.
func (c *Controller) PeekBlock(addr uint64, buf []byte) {
	for ; len(buf) > 0; addr, buf = addr+mem.BlockSize, buf[mem.BlockSize:] {
		c.peekBlock(addr, buf[:mem.BlockSize])
	}
}

// peekBlock is PeekBlock for the one block at addr.
func (c *Controller) peekBlock(addr uint64, buf []byte) {
	if pe, ok := c.pages.Get(mem.PageIndex(addr)); ok && !pe.dying {
		off := addr - pe.homeAddr
		if c.cfg.Mode == ModePageRemap {
			c.nvm.Peek(pe.visibleNVMAddr()+off, buf)
			return
		}
		c.dram.Peek(pe.dramAddr+off, buf)
		return
	}
	if be, ok := c.blocks.Get(mem.BlockIndex(addr)); ok {
		switch {
		case be.overlay || be.dying || be.lameDuck:
			c.nvm.Peek(be.homeAddr, buf)
		case be.active == activeDRAM:
			c.dram.Peek(be.bufAddr, buf)
		default:
			c.nvm.Peek(be.visibleAddr(), buf)
		}
		return
	}
	c.nvm.Peek(addr, buf)
}

// ResetStats implements ctl.Controller, keeping the table peaks: they
// describe the tables' contents, which a reset leaves in place.
func (c *Controller) ResetStats() {
	peakB, peakP := c.Counts.PeakBTTLive, c.Counts.PeakPTTLive
	c.Durable.ResetStats()
	c.Counts.PeakBTTLive, c.Counts.PeakPTTLive = peakB, peakP
}

// LiveEntries reports current BTT and PTT occupancy (tests, reports).
func (c *Controller) LiveEntries() (btt, ptt int) {
	return c.blocks.Len(), c.pages.Len()
}

// CommitAt implements ctl.Controller: whether a checkpoint is draining and
// the cycle at which it becomes durable.
func (c *Controller) CommitAt() (inFlight bool, at mem.Cycle) {
	return c.ckptInFlight, c.commitDone
}

// MetadataKind implements ctl.Controller: commit-header slots (and the
// generation-safety guard slot) and the per-generation table-blob areas are
// metadata; everything else (Home region, checkpoint slots) is data.
func (c *Controller) MetadataKind(addr uint64) ctl.MetadataKind { return c.meta.MetadataKind(addr) }

// sortedBlocks and sortedPages return table entries in physical-index order.
// Checkpointing, decay and migration iterate in this order so that device
// scheduling — and therefore commit timing — is deterministic for a given
// schedule. The radix tables scan in ascending key order by construction,
// so this is a straight collect with no sort. The returned slice is a
// snapshot: callers may insert or delete entries while walking it.
// Each call grabs the controller's epoch-arena scratch, so the previous
// call's snapshot is invalidated — callers never hold two block (or two
// page) snapshots at once.
func (c *Controller) sortedBlocks() []*blockEntry {
	out := c.blockScratch.Grab()
	c.blocks.Scan(func(_ uint64, e *blockEntry) bool {
		out = append(out, e)
		return true
	})
	return c.blockScratch.Keep(out)
}

func (c *Controller) sortedPages() []*pageEntry {
	out := c.pageScratch.Grab()
	c.pages.Scan(func(_ uint64, e *pageEntry) bool {
		out = append(out, e)
		return true
	})
	return c.pageScratch.Keep(out)
}

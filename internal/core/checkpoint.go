package core

import (
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
	"thynvm/internal/radix"
)

// guardIssue raises the durable generation-safety floor ahead of a write
// that overwrites a recovery slot (a block/page checkpoint slot or a Home
// copy), and returns the issue-cycle lower bound the destructive write must
// respect. Overwriting the slot opposite an entry's last checkpoint — or
// its Home copy — destroys the image generations older than that last
// checkpoint depend on; the entry's idle count dates that checkpoint at
// (newest committed − idle), so the floor rises there, durably, *before*
// the destructive write issues. With the guard off this returns now and
// write ordering degenerates to the legacy behavior.
func (c *Controller) guardIssue(now mem.Cycle, idle uint8) mem.Cycle {
	floor := uint64(0)
	if newest := c.meta.Seq - 1; c.meta.Seq > 0 && uint64(idle) < newest {
		floor = newest - uint64(idle)
	}
	return c.meta.Guard.Raise(c.nvm, now, now, floor)
}

// CheckpointDue implements ctl.Controller: the epoch timer has expired or a
// table is near overflow, and no previous checkpoint is still draining.
func (c *Controller) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	c.sync(now)
	if c.ckptInFlight {
		return false
	}
	if c.overflowReq {
		return true
	}
	if !c.EpochExpired(now, c.cfg.EpochLen) {
		return false
	}
	if !cpuDirty && !c.hasWork() {
		// Nothing to checkpoint anywhere: slide the epoch forward for free.
		c.EpochStart = now
		return false
	}
	return true
}

// hasWork reports whether a checkpoint would have anything to do.
func (c *Controller) hasWork() bool {
	work := false
	c.blocks.Scan(func(_ uint64, e *blockEntry) bool {
		work = e.active != activeNone || e.dying || e.overlay
		return !work
	})
	if work {
		return true
	}
	c.pages.Scan(func(_ uint64, e *pageEntry) bool {
		work = e.dirty || e.dying || e.remapActive
		return !work
	})
	return work
}

// BeginCheckpoint implements ctl.Controller. The caller has already stalled
// the CPU and flushed dirty cache blocks through WriteBlock. It ends the
// running epoch: working copies are staged as the next checkpoint (buffered
// blocks and dirty pages are posted to NVM, metadata is serialized, and a
// commit header ordered after all of it). Execution resumes at the returned
// cycle while the checkpoint drains in the background; the commit applies at
// c.commitDone (observed through sync).
//
// The paper's checkpointing order (Figure 6b) is preserved: (1) buffered
// working blocks from DRAM to NVM, (2) BTT, (3) dirty-page writeback,
// (4) PTT — with the atomic commit header last.
func (c *Controller) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	c.sync(now)
	if c.ckptInFlight {
		// Defensive: the harness should not call this while a checkpoint
		// is draining; stall until the commit applies. (The caller
		// observes this stall in the returned resume cycle.)
		if c.commitDone > now {
			c.Tele.StallSpan(now, c.commitDone, obs.CauseCkptDrain)
			now = c.commitDone
		}
		c.finalize()
	}
	epoch := c.epochID
	c.EndEpoch(now, epoch, c.overflowReq)
	maxDone := now
	var stagedBlocks, stagedPages uint64

	// (1) Drain working copies buffered in the DRAM Working Data Region.
	var blockBuf [mem.BlockSize]byte
	for _, e := range c.sortedBlocks() {
		if e.overlay {
			// Cooperation overlays: their data lives in the page's DRAM
			// slot and is captured by the page writeback below; the entry
			// itself is freed at commit.
			e.dying = true
			continue
		}
		if e.dying || e.lameDuck {
			// Already consolidated (decayed or migrated into a page);
			// nothing to stage. (Lame ducks remain serialized at their
			// committed slot but have no working copy.)
			continue
		}
		switch e.active {
		case activeDRAM:
			w := e.wAddr()
			rd := c.dram.ReadBackground(now, e.bufAddr, blockBuf[:])
			if gd := c.guardIssue(now, e.idle); gd > rd {
				rd = gd
			}
			//thynvm:destroys-generation stages C_last into the slot opposite the previous checkpoint
			_, done := c.nvm.WriteAt(now, rd, w, blockBuf[:], mem.SrcCheckpoint)
			if done > maxDone {
				maxDone = done
			}
			e.pendingClast = w
			e.ckpting = true
			stagedBlocks++
		case activeNVM:
			// (2) Block remapping proper: the working copy is already in
			// NVM; only metadata needs to persist. The working copy
			// becomes C_last with no data movement.
			e.pendingClast = e.wAddr()
			e.ckpting = true
			stagedBlocks++
		}
	}

	// (3) Write back dirty pages from DRAM to NVM.
	var pageBuf [mem.PageSize]byte
	for _, e := range c.sortedPages() {
		if e.dying {
			continue
		}
		if c.cfg.Mode == ModePageRemap {
			if e.remapActive {
				e.pendingClast = e.wAddr()
				e.ckpting = true
				e.flushDone = now
				stagedPages++
			}
			continue
		}
		if !e.dirty {
			continue
		}
		w := e.wAddr()
		rd := c.dram.ReadBackground(now, e.dramAddr, pageBuf[:])
		if gd := c.guardIssue(now, e.idle); gd > rd {
			rd = gd
		}
		//thynvm:destroys-generation stages a dirty page into the slot opposite the previous checkpoint
		_, done := c.nvm.WriteAt(now, rd, w, pageBuf[:], mem.SrcCheckpoint)
		if done > maxDone {
			maxDone = done
		}
		e.pendingClast = w
		e.ckpting = true
		e.flushDone = done
		stagedPages++
	}

	// (4) Serialize the translation tables and CPU state, then the commit
	// header, ordered after every data write above and after any Home-
	// consolidation copies posted at the previous commit. "Flush the NVM
	// write queue": the commit record must also follow the execution-phase
	// working copies that block remapping wrote directly to NVM — they
	// *are* the checkpoint data for those blocks. (Tracked explicitly so
	// that unrelated background consolidation copies do not gate the
	// commit.)
	blob := c.serializeTables(cpuState)
	hdrAt := max(maxDone, c.homeCopyMaxDone, c.execWriteMaxDone)
	c.homeCopyMaxDone, c.execWriteMaxDone = 0, 0
	blobDone, commitDone := c.meta.Commit(c.nvm, now, now, hdrAt, blob)
	c.ckptInFlight = true
	c.commitDone = commitDone

	// Reset per-epoch state for the new epoch.
	c.blocks.Scan(func(_ uint64, e *blockEntry) bool {
		if e.overlay {
			return true
		}
		if e.stores > 0 {
			e.idle = 0
		} else {
			e.idle = satInc8(e.idle)
		}
		e.stores = 0
		e.active = activeNone
		return true
	})
	c.pages.Scan(func(_ uint64, e *pageEntry) bool {
		e.lastStores = e.stores
		if e.stores > 0 {
			e.idle = 0
		} else {
			e.idle = satInc8(e.idle)
		}
		e.stores = 0
		e.dirty = false
		e.remapActive = false
		return true
	})
	// Migration decisions use the ending epoch's counts; the next epoch
	// starts from half of them (an EWMA) so that short, pressure-forced
	// epochs do not undersample page hotness. The counter table consumed
	// two epochs ago is recycled (structure retained, occupancy cleared),
	// so the seal allocates nothing at steady state.
	next := c.pageStoresFree
	c.pageStoresFree = nil
	if next == nil {
		next = &radix.Table[uint32]{}
	} else {
		next.Clear()
	}
	c.lastPageStores = c.pageStores
	c.pageStores.Scan(func(p uint64, v uint32) bool {
		if v >= 2 {
			next.Set(p, v/2)
		}
		return true
	})
	c.pageStores = next

	c.epochID++
	c.overflowReq = false

	// The processor resumes after the controller snapshots its tables; the
	// cache-flush stall is accounted by the caller. The drain window stays
	// open on the checkpoint track until finalize commits it.
	resume := now + mem.TableLookup
	c.Persisted(len(blob), blobDone)
	if c.Tele.On() {
		var drain uint64
		if commitDone > resume {
			drain = uint64(commitDone - resume)
		}
		c.Tele.Rec().Event(uint64(resume), obs.EvCkptDrain, epoch, drain)
	}
	c.NextEpoch(resume, ctl.EpochMeta{
		DirtyBlocks: stagedBlocks,
		DirtyPages:  stagedPages,
		BTTLive:     uint64(c.blocks.Len()),
		PTTLive:     uint64(c.pages.Len()),
	})
	return resume
}

// DrainCheckpoint implements ctl.Controller.
func (c *Controller) DrainCheckpoint(now mem.Cycle) mem.Cycle {
	c.sync(now)
	if c.ckptInFlight {
		if c.commitDone > now {
			// The caller's CPU blocks until commit: attribute the wait as
			// an explicit foreground drain on the CPU track.
			if c.Tele.On() {
				c.Tele.Rec().BeginSpan(obs.TrackCPU, uint64(now), obs.SpanDeviceDrain, obs.CauseCkptDrain, 0)
				c.Tele.Rec().EndSpan(obs.TrackCPU, uint64(c.commitDone))
			}
			now = c.commitDone
		}
		c.finalize()
	}
	return now
}

// finalize applies the in-flight checkpoint commit: versions rotate, freed
// entries recycle, idle entries decay toward the Home region, and (in dual
// mode) pages migrate between the two schemes based on last epoch's write
// locality. All consolidation writes posted here are ordered before the
// *next* commit header via homeCopyMaxDone.
func (c *Controller) finalize() {
	if !c.ckptInFlight {
		return
	}
	c.ckptInFlight = false
	c.Committed(c.commitDone)
	at := c.commitDone

	// Rotate versions: staged checkpoints become C_last.
	c.blocks.Scan(func(_ uint64, e *blockEntry) bool {
		if e.ckpting {
			e.clastAddr = e.pendingClast
			e.hasCkpt = true
			e.ckpting = false
		}
		return true
	})
	c.pages.Scan(func(_ uint64, e *pageEntry) bool {
		if e.ckpting {
			e.clastAddr = e.pendingClast
			e.hasCkpt = true
			e.ckpting = false
		}
		return true
	})

	// Free entries whose consolidation committed with this checkpoint
	// (in deterministic order: the free lists feed future slot addresses,
	// which feed bank scheduling).
	for _, e := range c.sortedBlocks() {
		if e.dying || e.overlay {
			c.freeBlockEntry(e)
		}
	}
	for _, e := range c.sortedPages() {
		if e.dying {
			c.freePageEntry(e)
		}
	}

	// Promote consolidations whose Home copy this commit proved durable:
	// the entry leaves the next serialized table and is freed one commit
	// later (until then the durable header still references its alt slot,
	// which stays intact).
	c.blocks.Scan(func(_ uint64, e *blockEntry) bool {
		if e.consolidateDone > 0 && e.consolidateDone <= c.commitDone {
			e.consolidateDone = 0
			e.lameDuck = false
			e.dying = true
		}
		return true
	})
	c.pages.Scan(func(_ uint64, e *pageEntry) bool {
		if e.consolidateDone > 0 && e.consolidateDone <= c.commitDone {
			e.consolidateDone = 0
			e.dying = true
		}
		return true
	})

	c.decay(at)
	if c.cfg.Mode == ModeDual {
		c.migrate(at)
	}
	if c.cfg.Integrity {
		c.scrubStep(at)
	}
	// The sealed epoch's counts are fully consumed; park the table for
	// recycling at the next seal, and reset the epoch arena wholesale —
	// every per-epoch work list and snapshot is dead past this point.
	c.pageStoresFree = c.lastPageStores
	c.lastPageStores = nil
	c.epoch.Reset()

	// Allocation pressure may have eased.
	if c.blocks.Len() < c.cfg.BTTEntries-c.cfg.WatermarkEntries &&
		(c.cfg.Mode == ModeDual || c.cfg.Mode == ModeBlockRemap || c.cfg.Mode == ModeBlockWriteback ||
			c.pages.Len() < c.cfg.PTTEntries-c.cfg.WatermarkEntries/mem.BlocksPerPage-1) {
		c.overflowReq = false
	}
}

// scrubChunkBudget bounds how many storage chunks one idle-cycle scrub
// step verifies (per commit finalize), so patrol scrubbing progresses
// without dominating finalize cost on large footprints.
const scrubChunkBudget = 4

// scrubStep advances the patrol scrub over the Home region during the
// commit-finalize lull. The walk costs zero simulated cycles — real
// hardware hides patrol scrubbing in idle memory slots; the model only
// needs its detection side, surfaced as obs events.
func (c *Controller) scrubStep(at mem.Cycle) {
	scanned, fails := c.nvm.Storage().ScrubStep(scrubChunkBudget, c.cfg.PhysBytes)
	if c.Tele.On() {
		if scanned > 0 {
			c.Tele.Rec().Event(uint64(at), obs.EvScrub, uint64(scanned), uint64(len(fails)))
		}
		for _, a := range fails {
			c.Tele.Rec().Event(uint64(at), obs.EvChecksumFail, a, 0)
		}
	}
}

// decay consolidates entries that have been idle for DecayEpochs epochs:
// their last checkpoint is copied to the Home region (if not already there)
// and the entry freed, bounding table occupancy. Once a table has spilled
// past its hardware capacity, every entry without a live working copy
// consolidates immediately — the equivalent of the paper's freeing of
// entries that belong to the penultimate checkpoint on overflow.
func (c *Controller) decay(at mem.Cycle) {
	thresh := uint8(c.cfg.DecayEpochs)
	if c.blocks.Len() > c.cfg.BTTEntries || c.pages.Len() > c.cfg.PTTEntries {
		thresh = 0
	}
	// Consolidation copies are posted on the background port; bound how
	// many are in flight per commit so the backlog never starves the
	// checkpoint writes sharing that port.
	blockBudget, pageBudget := 2048, 64
	var blockBuf [mem.BlockSize]byte
	for _, e := range c.sortedBlocks() {
		if blockBudget == 0 {
			break
		}
		if e.overlay || e.dying || e.lameDuck || e.ckpting || e.active != activeNone ||
			e.consolidateDone > 0 || e.idle < thresh {
			continue
		}
		if !e.hasCkpt || e.clastAddr == e.homeAddr {
			// Home already holds (or is) the latest committed data; the
			// entry was excluded from the last serialized table, so it
			// can be dropped immediately.
			c.freeBlockEntry(e)
			continue
		}
		// Post the consolidation copy on the background port; the entry
		// stays live (and serialized at its alt slot) until a commit
		// proves the copy durable — consolidation never delays commits.
		// In integrity mode the copy source is verified: a media failure
		// under the read skips the Home write and leaves the entry live,
		// so recovery re-reads the damaged slot and refuses loudly instead
		// of a clean-checksummed wrong image propagating to Home.
		intBase := c.meta.ReadFailures()
		rd := c.nvm.ReadBackground(at, e.clastAddr, blockBuf[:])
		if c.meta.ReadFailures() != intBase {
			continue
		}
		if gd := c.guardIssue(at, e.idle); gd > rd {
			rd = gd
		}
		_, done := c.nvm.WriteAt(at, rd, e.homeAddr, blockBuf[:], mem.SrcMigration)
		e.consolidateDone = done
		blockBudget--
	}
	var pageBuf [mem.PageSize]byte
	for _, e := range c.sortedPages() {
		if pageBudget == 0 {
			break
		}
		if e.dying || e.ckpting || e.dirty || e.remapActive ||
			e.consolidateDone > 0 || e.idle < thresh {
			continue
		}
		if !e.hasCkpt || e.clastAddr == e.homeAddr {
			c.freePageEntry(e)
			continue
		}
		intBase := c.meta.ReadFailures()
		rd := c.nvm.ReadBackground(at, e.clastAddr, pageBuf[:])
		if c.meta.ReadFailures() != intBase {
			continue
		}
		if gd := c.guardIssue(at, e.idle); gd > rd {
			rd = gd
		}
		_, done := c.nvm.WriteAt(at, rd, e.homeAddr, pageBuf[:], mem.SrcMigration)
		e.consolidateDone = done
		pageBudget--
	}
}

// migrate adapts checkpointing schemes to last epoch's write locality
// (§3.4/§4.2): pages written densely switch to page writeback; PTT pages
// written sparsely switch back to block remapping.
func (c *Controller) migrate(at mem.Cycle) {
	// Page writeback -> block remapping for cold PTT pages: request a lazy
	// consolidation to Home; the entry is freed once the copy commits and
	// decay drops it.
	var pageBuf [mem.PageSize]byte
	for _, e := range c.sortedPages() {
		if e.dying || e.ckpting || e.dirty || !e.hasCkpt || e.consolidateDone > 0 {
			continue
		}
		if int(e.lastStores) > c.cfg.SwitchToBlock || e.lastStores == 0 {
			// Untouched pages are handled by decay; actively hot pages
			// stay.
			continue
		}
		c.Counts.MigrationsOut++
		if c.Tele.On() {
			c.Tele.Rec().Event(uint64(at), obs.EvMigrationOut, e.phys, 0)
		}
		if e.clastAddr == e.homeAddr {
			c.freePageEntry(e)
			continue
		}
		intBase := c.meta.ReadFailures()
		rd := c.nvm.ReadBackground(at, e.clastAddr, pageBuf[:])
		if c.meta.ReadFailures() != intBase {
			continue
		}
		if gd := c.guardIssue(at, e.idle); gd > rd {
			rd = gd
		}
		_, done := c.nvm.WriteAt(at, rd, e.homeAddr, pageBuf[:], mem.SrcMigration)
		e.consolidateDone = done
	}

	// Block remapping -> page writeback for densely written pages. The
	// store-count scan is already in ascending page order.
	var blockBuf [mem.BlockSize]byte
	hotPages := c.hotScratch.Grab()
	c.lastPageStores.Scan(func(pageIdx uint64, count uint32) bool {
		if int(count) >= c.cfg.SwitchToPage {
			hotPages = append(hotPages, pageIdx)
		}
		return true
	})
	hotPages = c.hotScratch.Keep(hotPages)
	for _, pageIdx := range hotPages {
		if pe, ok := c.pages.Get(pageIdx); ok && !pe.dying {
			continue // already page-managed
		}
		if c.pages.Len() >= c.cfg.PTTEntries {
			continue // PTT full; stay with block remapping
		}
		if _, ok := c.pages.Get(pageIdx); ok {
			// A dying entry for this page exists (migrating out or
			// decayed); let that complete before migrating back in.
			continue
		}
		pe := c.allocPageEntry(pageIdx)
		intBase := c.meta.ReadFailures()
		// Compose two images of the page from its blocks: the visible one
		// (with any current-epoch working copies) for the DRAM Working
		// Data Region, and the committed one (last-checkpoint data) for
		// consolidation into Home. The Home write is safe for the same
		// reason decay copies are — every overwritten byte is either dead
		// (the block's checkpoint lives in its alt slot) or rewritten with
		// its identical committed value — and it lets the next commit
		// drop the block entries without forcing a full-page checkpoint.
		var visImg, homeImg [mem.PageSize]byte
		base := pageIdx * mem.PageSize
		rdMax := at
		hasWorking := false
		for b := 0; b < mem.BlocksPerPage; b++ {
			addr := base + uint64(b*mem.BlockSize)
			off := b * mem.BlockSize
			be, _ := c.blocks.Get(mem.BlockIndex(addr))
			if be == nil || be.overlay {
				rd := c.nvm.ReadBackground(at, addr, blockBuf[:])
				if rd > rdMax {
					rdMax = rd
				}
				copy(visImg[off:], blockBuf[:])
				copy(homeImg[off:], blockBuf[:])
				continue
			}
			// Committed image: the block's last checkpoint.
			committed := be.homeAddr
			if be.hasCkpt {
				committed = be.clastAddr
			}
			rd := c.nvm.ReadBackground(at, committed, blockBuf[:])
			if rd > rdMax {
				rdMax = rd
			}
			copy(homeImg[off:], blockBuf[:])
			// Visible image: the working copy if one exists this epoch.
			switch be.active {
			case activeDRAM:
				c.dram.ReadBackground(at, be.bufAddr, blockBuf[:])
				copy(visImg[off:], blockBuf[:])
				hasWorking = true
			case activeNVM:
				rd := c.nvm.ReadBackground(at, be.wAddr(), blockBuf[:])
				if rd > rdMax {
					rdMax = rd
				}
				copy(visImg[off:], blockBuf[:])
				hasWorking = true
			default:
				copy(visImg[off:], homeImg[off:])
			}
		}
		if c.meta.ReadFailures() != intBase {
			// Media failure while composing the committed image: abandon the
			// migration so the poisoned read never lands in Home. The block
			// entries stay authoritative and recovery will surface the
			// damage.
			c.freePageEntry(pe)
			continue
		}
		c.Counts.MigrationsIn++
		if c.Tele.On() {
			c.Tele.Rec().Event(uint64(at), obs.EvMigrationIn, pageIdx, 0)
		}
		if gd := c.guardIssue(at, 0); gd > rdMax {
			rdMax = gd
		}
		c.dram.WriteAt(at, rdMax, pe.dramAddr, visImg[:], mem.SrcMigration)
		_, done := c.nvm.WriteAt(at, rdMax, pe.homeAddr, homeImg[:], mem.SrcMigration)
		// The consumed block entries stay serialized (their alt slots
		// remain the durable recovery source) until a commit proves the
		// Home image durable — the same lazy-consolidation protocol decay
		// uses, so migration never delays commits. As lame ducks they no
		// longer serve accesses (the page does).
		for b := 0; b < mem.BlocksPerPage; b++ {
			addr := base + uint64(b*mem.BlockSize)
			if be, ok := c.blocks.Get(mem.BlockIndex(addr)); ok && !be.overlay && !be.dying {
				be.lameDuck = true
				be.active = activeNone
				be.consolidateDone = done
			}
		}
		// The page's committed location is Home; only if an uncommitted
		// working copy was folded into the DRAM image does the page need a
		// checkpoint of its own at the next epoch boundary.
		pe.hasCkpt = true
		pe.clastAddr = pe.homeAddr
		pe.dirty = hasWorking
	}
}

package core

import (
	"encoding/binary"
	"fmt"

	"thynvm/internal/commit"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// Metadata persistence format. Each checkpoint commit writes a table blob
// (translation tables + CPU state) into one of K rotating areas of NVM, then
// a commit header naming it; the header slots, the generation-safety guard,
// the slot scan and the verdict table are the shared internal/commit
// machinery, under ThyNVM's own record magics.

const blobMagic = 0x5448594e564d5442 // "THYNVMTB"

// tableRec is one serialized translation entry: physical index and the
// slot address holding its committed data.
type tableRec struct{ phys, slot uint64 }

// serializeTables builds the persistent form of the BTT and PTT: for every
// entry whose post-commit checkpoint will live outside the Home region, the
// physical index and the slot address. Entries checkpointed into Home are
// omitted — recovery falls back to Home for anything untracked, which is
// also what lets idle entries be freed.
func (c *Controller) serializeTables(cpuState []byte) []byte {
	brecs, precs := c.brecScratch.Grab(), c.precScratch.Grab()
	for _, e := range c.sortedBlocks() {
		if e.overlay || e.dying {
			continue
		}
		// Lame ducks serialize at their committed slot (clast) below.
		slot := e.clastAddr
		if e.ckpting {
			slot = e.pendingClast
		}
		if !e.hasCkpt && !e.ckpting {
			continue // never checkpointed: Home is authoritative
		}
		if slot == e.homeAddr {
			continue
		}
		brecs = append(brecs, tableRec{e.phys, slot})
	}
	brecs = c.brecScratch.Keep(brecs)
	for _, e := range c.sortedPages() {
		if e.dying {
			continue
		}
		slot := e.clastAddr
		if e.ckpting {
			slot = e.pendingClast
		}
		if !e.hasCkpt && !e.ckpting {
			continue
		}
		if slot == e.homeAddr {
			continue
		}
		precs = append(precs, tableRec{e.phys, slot})
	}
	precs = c.precScratch.Keep(precs)

	img := tableImage{epochID: c.epochID, cpuState: cpuState, blocks: brecs, pages: precs}
	return c.blobScratch.Keep(appendTables(c.blobScratch.Grab(), &img))
}

// tableImage is the content of a table blob.
type tableImage struct {
	epochID  uint64
	cpuState []byte
	blocks   []tableRec
	pages    []tableRec
}

// appendTables appends img's persistent form to blob: the blob magic, the
// epoch id, the length-prefixed CPU state, then the block and the page
// records, each list count-prefixed.
func appendTables(blob []byte, img *tableImage) []byte {
	le := binary.LittleEndian
	blob = le.AppendUint64(blob, blobMagic)
	blob = le.AppendUint64(blob, img.epochID)
	blob = le.AppendUint64(blob, uint64(len(img.cpuState)))
	blob = append(blob, img.cpuState...)
	for _, recs := range [2][]tableRec{img.blocks, img.pages} {
		blob = le.AppendUint64(blob, uint64(len(recs)))
		for _, r := range recs {
			blob = le.AppendUint64(blob, r.phys)
			blob = le.AppendUint64(blob, r.slot)
		}
	}
	return blob
}

// parseTables decodes a table blob, range-checking every address it names
// against meta's layout: each block or page index must lie in Home, and
// its slot past the metadata page and inside the device.
func parseTables(blob []byte, meta *commit.Meta) (*tableImage, error) {
	r := commit.NewBlobReader(blob)
	if magic := r.Uint64(); r.Err == nil && magic != blobMagic {
		return nil, fmt.Errorf("core: bad table blob magic %#x", magic)
	}
	img := &tableImage{epochID: r.Uint64()}
	img.cpuState = append([]byte(nil), r.Bytes(r.Uint64())...)
	for _, l := range [2]struct {
		recs *[]tableRec
		size uint64
	}{{&img.blocks, mem.BlockSize}, {&img.pages, mem.PageSize}} {
		for n := r.Uint64(); n > 0 && r.Err == nil; n-- {
			rec := tableRec{phys: r.Uint64(), slot: r.Uint64()}
			if r.Err == nil && (!meta.InHome(rec.phys, l.size) || !meta.SlotOK(rec.slot, l.size)) {
				return nil, fmt.Errorf("core: table entry %d -> %#x outside the device layout", rec.phys, rec.slot)
			}
			*l.recs = append(*l.recs, rec)
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return img, nil
}

// Crash implements ctl.Controller: power failure at cycle at. Posted NVM
// writes that have not completed never become durable; DRAM and all
// controller state (translation tables, epoch machinery) are lost.
func (c *Controller) Crash(at mem.Cycle) {
	c.nvm.Crash(at)
	c.dram.Crash(at)
	c.blocks.Reset()
	c.pages.Reset()
	c.freeBlockSlots = nil
	c.freePageSlots = nil
	c.freeDramBlockSlots = nil
	c.freeDramPageSlots = nil
	c.dramBump = 0
	c.pageStores.Reset()
	c.lastPageStores = nil
	c.ckptInFlight = false
	c.overflowReq = false
	c.homeCopyMaxDone = 0
	// The blob-area table and the volatile mirror of the durable
	// generation-safety floor are lost; Recover restores the floor from the
	// guard record.
	c.meta.Crash()
	// nvmBump and seq are restored by Recover from durable metadata.
	c.nvmBump = c.nvmBumpStart
	c.seq = 0
}

// interruptRecovery models power failing at cycle cut of the recovery
// timeline: writes the interrupted recovery posted but did not complete by
// cut are lost (or torn, under an armed CrashFault), volatile state is
// reset, and the caller is told to recover again.
func (c *Controller) interruptRecovery(cut mem.Cycle) ([]byte, mem.Cycle, error) {
	c.Crash(cut)
	return nil, cut, ctl.ErrRecoverInterrupted
}

// Recover implements ctl.Controller: it reloads the newest valid checkpoint
// metadata from NVM (the paper's step 1), consolidates every checkpointed
// block and page into the Home region so the whole physical address space
// is software-visible again (steps 2–3), and returns the CPU state saved
// with that checkpoint. If no checkpoint ever committed, the Home region
// (the initial image) is the recovered state and cpuState is nil.
//
// When a recovery interrupt is armed (SetRecoverInterrupt), the controller
// stops issuing work once the timeline passes the cut and returns
// ctl.ErrRecoverInterrupted after discarding consolidation writes that had
// not completed by then — recovery must therefore be restartable from any
// prefix of its own writes, which it is: consolidation only copies durable
// checkpoint slots onto Home, and the metadata naming those slots is not
// touched until the next commit.
func (c *Controller) Recover() ([]byte, mem.Cycle, error) {
	cut := c.recoverCut
	c.recoverCut = 0
	armed := cut > 0
	c.lastRecovery = ctl.RecoveryReport{}

	// Classify every retained generation and read the durable floor, then
	// apply the shared decision table (internal/commit).
	sc, t := c.meta.Scan(c.nvm, 0)
	if armed && t >= cut {
		return c.interruptRecovery(cut)
	}
	rep, err := sc.Verdict()
	if err != nil {
		c.lastRecovery = rep
		return nil, t, err
	}
	if !sc.Found {
		// Cold start: nothing ever committed; Home is authoritative —
		// after the integrity scrub clears the initial image.
		if rep, err := c.meta.Scrub(&sc); err != nil {
			c.lastRecovery = rep
			return nil, t, err
		}
		c.epochID = 0
		c.epochStart = t
		c.seq = 0
		c.lastRecovery = rep
		return nil, t, nil
	}
	best := sc.Best
	img, err := parseTables(sc.BestBlob, c.meta)
	if err != nil {
		c.lastRecovery, err = sc.Refuse("valid header %d names unparsable table: %w", best.Seq, err)
		return nil, t, err
	}

	// Consolidation overwrites Home with generation best's image,
	// destroying anything older generations still relied on: raise the
	// durable floor to best first and order the copies after the raise.
	// The consolidation reads are also the integrity check of the
	// checkpoint slots themselves — any media failure under them aborts
	// the recovery instead of materializing a poisoned image.
	c.meta.Guard.Restore(sc.Floor)
	intBase := c.meta.ReadFailures()
	gd := c.meta.Guard.Raise(c.nvm, t, t, best.Seq)

	// Consolidate checkpointed data into Home.
	var blockBuf [mem.BlockSize]byte
	maxBump := c.nvmBumpStart
	for _, r := range img.blocks {
		if armed && t >= cut {
			return c.interruptRecovery(cut)
		}
		rd := c.nvm.Read(t, r.slot, blockBuf[:])
		if gd > rd {
			rd = gd
		}
		//thynvm:destroys-generation recovery consolidation overwrites Home with generation best's blocks
		t, _ = c.nvm.WriteAt(rd, gd, r.phys*mem.BlockSize, blockBuf[:], mem.SrcCheckpoint)
		if end := r.slot + mem.BlockSize; end > maxBump {
			maxBump = end
		}
	}
	var pageBuf [mem.PageSize]byte
	for _, r := range img.pages {
		if armed && t >= cut {
			return c.interruptRecovery(cut)
		}
		rd := c.nvm.Read(t, r.slot, pageBuf[:])
		if gd > rd {
			rd = gd
		}
		//thynvm:destroys-generation recovery consolidation overwrites Home with generation best's pages
		t, _ = c.nvm.WriteAt(rd, gd, r.phys*mem.PageSize, pageBuf[:], mem.SrcCheckpoint)
		if end := r.slot + mem.PageSize; end > maxBump {
			maxBump = end
		}
	}
	if armed && c.nvm.MaxPendingDone(t) > cut {
		// Power fails before the last consolidation write drains.
		return c.interruptRecovery(cut)
	}
	t = c.nvm.Flush(t)
	if c.meta.ReadFailures() != intBase {
		c.lastRecovery, err = sc.Refuse("media errors while reading generation %d checkpoint data", best.Seq)
		return nil, t, err
	}
	// Post-recovery scrub of the software-visible image: anything bit-rot
	// or dead cells damaged that consolidation did not rewrite is caught
	// here, before software sees it.
	if rep, err := c.meta.Scrub(&sc); err != nil {
		c.lastRecovery = rep
		return nil, t, err
	}
	// Future allocations must not clobber the surviving metadata blob (it
	// stays authoritative until the next commit) nor, conservatively, the
	// slots just consolidated.
	if end := best.BlobAddr + best.BlobLen; end > maxBump {
		maxBump = end
	}
	c.nvmBump = alignUp(maxBump, mem.PageSize)
	c.seq = best.Seq + 1
	c.epochID = img.epochID
	c.epochStart = t
	c.lastRecovery = rep
	if rep.Class == ctl.RecoveredFallback && c.tele.On() {
		c.tele.Rec().Event(uint64(t), obs.EvRecoveryFallback, best.Seq, uint64(rep.FallbackDepth))
	}
	return img.cpuState, t, nil
}

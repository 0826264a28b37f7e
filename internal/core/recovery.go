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
// the slot scan, the verdict table and the recovery driver are the shared
// internal/commit machinery, under ThyNVM's own record magics.

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
	c.nvmBlocks.free = nil
	c.nvmPages.free = nil
	c.dramBlocks.free = nil
	c.dramPages.free = nil
	c.dramBump = 0
	c.pageStores.Reset()
	c.lastPageStores = nil
	c.ckptInFlight = false
	c.overflowReq = false
	c.homeCopyMaxDone = 0
	// The next sequence number, the bump cursor, the blob-area table and
	// the volatile mirror of the durable generation-safety floor are lost;
	// Recover restores them from durable metadata.
	c.meta.Crash()
}

// Recover implements ctl.Controller: it reloads the newest valid checkpoint
// metadata from NVM (the paper's step 1), consolidates every checkpointed
// block and page into the Home region so the whole physical address space
// is software-visible again (steps 2–3), and returns the CPU state saved
// with that checkpoint. If no checkpoint ever committed, the Home region
// (the initial image) is the recovered state and cpuState is nil. The
// procedure, including an interrupt armed with SetRecoverInterrupt, is the
// shared driver's (commit.(*Meta).Recover); the table blob supplies its
// copies, all blocks, then all pages.
func (c *Controller) Recover() ([]byte, mem.Cycle, error) {
	var epochID uint64
	cpu, t, err := c.meta.Recover(&c.Durable, c.Crash, "unparsable table", func(blob []byte) ([]byte, []commit.Copy, error) {
		img, err := parseTables(blob, c.meta)
		if err != nil {
			return nil, nil, err
		}
		copies := make([]commit.Copy, 0, len(img.blocks)+len(img.pages))
		for _, r := range img.blocks {
			copies = append(copies, commit.Copy{Dst: r.phys * mem.BlockSize, Src: r.slot, Size: mem.BlockSize})
		}
		for _, r := range img.pages {
			copies = append(copies, commit.Copy{Dst: r.phys * mem.PageSize, Src: r.slot, Size: mem.PageSize})
		}
		epochID = img.epochID
		return img.cpuState, copies, nil
	})
	if err != nil {
		return nil, t, err
	}
	c.epochID = epochID
	c.epochStart = t
	if rep := c.Last; rep.Class == ctl.RecoveredFallback && c.Tele.On() {
		c.Tele.Rec().Event(uint64(t), obs.EvRecoveryFallback, rep.Generation, uint64(rep.FallbackDepth))
	}
	return cpu, t, nil
}

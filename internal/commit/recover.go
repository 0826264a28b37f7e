package commit

import (
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

// Copy is one write of a recovered generation's consolidation into Home:
// Size bytes read from the checkpoint slot at Src, written to Home address
// Dst — or, for an inline copy (Data non-nil), Data itself, with no read.
type Copy struct {
	Dst, Src, Size uint64
	Data           []byte
}

// Decoder decodes the blob of the generation recovery restores into the CPU
// state saved with it and the copies that consolidate it into Home, in the
// order recovery issues them.
type Decoder func(blob []byte) (cpu []byte, copies []Copy, err error)

// Recover is the recovery procedure of every scheme (DESIGN.md §13): it
// reloads the newest generation the verdict table lets it restore,
// consolidates that generation's copies into Home so the whole physical
// address space is software-visible again, and returns the CPU state saved
// with it, nil on a cold start. The latency is the cycle its last write
// drained. A scheme supplies decode, and what names its blob in the refusal
// of an undecodable one.
//
// Recover runs on the durable device d.Dev, consumes the cut armed in d and
// records its report in d.Last; a completed recovery restarts d's epoch
// clock and logs a fallback (d.Recovered). Once the recovery timeline passes the cut,
// it calls crash(cut) — the scheme's Crash, which drops the writes the
// interrupted recovery had not completed — and returns
// ctl.ErrRecoverInterrupted. A rerun is always safe: the copies only rewrite
// Home from durable checkpoint data, and the metadata naming that data is
// not touched until the next commit.
//
// After restoring a generation, Seq is the next commit's sequence number
// and Bump the first free address for future allocations: page-aligned
// past the metadata page, the surviving blob and, conservatively, every
// slot just read. A cold start leaves both alone.
func (m *Meta) Recover(d *ctl.Durable, crash func(mem.Cycle), what string, decode Decoder) ([]byte, mem.Cycle, error) {
	nvm, cut := d.Dev, d.Cut
	d.Cut, d.Last = 0, ctl.RecoveryReport{}
	interrupt := func() ([]byte, mem.Cycle, error) {
		crash(cut)
		return nil, cut, ctl.ErrRecoverInterrupted
	}
	sc, t := m.Scan(nvm, 0)
	if cut > 0 && t >= cut {
		return interrupt()
	}
	rep, err := sc.Verdict()
	if err != nil {
		d.Last = rep
		return nil, t, err
	}
	if !sc.Found {
		// Cold start: nothing ever committed, so Home is authoritative —
		// once the integrity scrub clears the initial image.
		if srep, err := m.Scrub(&sc); err != nil {
			d.Last = srep
			return nil, t, err
		}
		d.Recovered(rep, t)
		return nil, t, nil
	}
	best := sc.Best
	cpu, copies, err := decode(sc.BestBlob)
	if err != nil {
		d.Last, err = sc.Refuse("valid header %d names "+what+": %w", best.Seq, err)
		return nil, t, err
	}

	// The copies overwrite Home bytes older generations still rely on: raise
	// the durable floor to best first and order every copy after the raise.
	// The slot reads double as the integrity check of the checkpoint data: a
	// media failure under them refuses the recovery instead of materializing
	// a poisoned image.
	m.Guard.Restore(sc.Floor)
	fails := m.ReadFailures()
	gd := m.Guard.Raise(nvm, t, t, best.Seq)
	end := max(m.DataStart(), best.BlobAddr+best.BlobLen)
	var buf [mem.PageSize]byte
	for _, c := range copies {
		if cut > 0 && t >= cut {
			return interrupt()
		}
		at, data := t, c.Data
		if data == nil {
			data = buf[:c.Size]
			at = max(nvm.Read(t, c.Src, data), gd)
			end = max(end, c.Src+c.Size)
		}
		//thynvm:destroys-generation recovery consolidation overwrites Home with generation best's image
		t, _ = nvm.WriteAt(at, gd, c.Dst, data, mem.SrcCheckpoint)
	}
	if cut > 0 && nvm.MaxPendingDone(t) > cut {
		// Power fails before the last copy drains.
		return interrupt()
	}
	t = nvm.Flush(t)
	if m.ReadFailures() != fails {
		d.Last, err = sc.Refuse("media errors while reading generation %d checkpoint data", best.Seq)
		return nil, t, err
	}
	// Anything media faults damaged that the copies did not rewrite is
	// caught here, before software sees it.
	if srep, err := m.Scrub(&sc); err != nil {
		d.Last = srep
		return nil, t, err
	}
	m.Bump, m.Seq = alignPage(end), best.Seq+1
	d.Recovered(rep, t)
	return cpu, t, nil
}

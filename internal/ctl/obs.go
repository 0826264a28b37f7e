package ctl

import (
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// EpochMeta carries the controller-specific fields of one epoch sample that
// cannot be derived from Stats deltas.
type EpochMeta struct {
	// Epoch is the id of the epoch being closed.
	Epoch uint64
	// Start and End bound the epoch (End = the BeginCheckpoint instant).
	Start, End mem.Cycle
	// DirtyBlocks and DirtyPages count working copies the closing
	// checkpoint stages.
	DirtyBlocks, DirtyPages uint64
	// BTTLive and PTTLive are translation-table occupancy at End.
	BTTLive, PTTLive uint64
	// Forced reports a table-overflow-forced checkpoint.
	Forced bool
}

// EpochSampler converts cumulative controller Stats into the per-epoch
// delta samples of the obs time series. Every controller embeds one; the
// zero value is detached and free.
type EpochSampler struct {
	rec  obs.Recorder
	on   bool
	prev Stats
}

// Attach binds the recorder and snapshots the current cumulative stats as
// the delta baseline.
func (es *EpochSampler) Attach(r obs.Recorder, cur Stats) {
	es.rec = r
	es.on = r != nil && r.Enabled()
	es.prev = cur
}

// On reports whether sampling is active; instrumentation sites guard on it.
func (es *EpochSampler) On() bool { return es.on }

// Rec returns the attached recorder for direct event/histogram emission.
// Only call when On() is true.
func (es *EpochSampler) Rec() obs.Recorder { return es.rec }

// Rebase resets the delta baseline; call after ResetStats so the next
// sample does not underflow against pre-reset cumulative counters.
func (es *EpochSampler) Rebase(cur Stats) { es.prev = cur }

// StallSpan emits one in-line CPU stall span [start, end) attributed to
// cause. Zero-length and inverted intervals are dropped, so call sites
// can pass raw (now, ack) pairs without checking.
//
//thynvm:hotpath
func (es *EpochSampler) StallSpan(start, end mem.Cycle, cause obs.Cause) {
	if !es.on || end <= start {
		return
	}
	es.rec.BeginSpan(obs.TrackCPU, uint64(start), obs.SpanStall, cause, 0)
	es.rec.EndSpan(obs.TrackCPU, uint64(end))
}

// Sample emits one per-epoch time-series point: meta plus the deltas of
// cur against the previous sample's cumulative stats.
func (es *EpochSampler) Sample(meta EpochMeta, cur Stats) {
	if !es.on {
		return
	}
	p := es.prev
	s := obs.EpochSample{
		Epoch:         meta.Epoch,
		Start:         uint64(meta.Start),
		End:           uint64(meta.End),
		Stall:         uint64(cur.CkptStall - p.CkptStall),
		Busy:          uint64(cur.CkptBusy - p.CkptBusy),
		DirtyBlocks:   meta.DirtyBlocks,
		DirtyPages:    meta.DirtyPages,
		BTTLive:       meta.BTTLive,
		PTTLive:       meta.PTTLive,
		MigrationsIn:  cur.MigrationsIn - p.MigrationsIn,
		MigrationsOut: cur.MigrationsOut - p.MigrationsOut,
		Spills:        cur.TableSpills - p.TableSpills,
		Buffered:      cur.BufferedBlockWrites - p.BufferedBlockWrites,
		NVMWritten:    cur.NVM.BytesWritten - p.NVM.BytesWritten,
		NVMRead:       cur.NVM.BytesRead - p.NVM.BytesRead,
		DRAMWritten:   cur.DRAM.BytesWritten - p.DRAM.BytesWritten,
		Forced:        meta.Forced,
	}
	for i := range s.NVMBySource {
		s.NVMBySource[i] = cur.NVM.BytesBySource[i] - p.NVM.BytesBySource[i]
	}
	es.prev = cur
	es.rec.EpochSample(s)
}

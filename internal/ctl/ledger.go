package ctl

import (
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// The epoch ledger. Every system runs one epoch protocol: an execution
// epoch ends, a checkpoint is staged, its blob persists, its commit becomes
// durable, the next epoch begins. A controller reports each step to its
// Durable, which keeps the epoch clock (EpochStart), the Epochs, Commits and
// CkptBusy counters and the checkpoint's events, spans and epoch sample:
//
//	EndEpoch   epoch_end, then BeginCkpt
//	BeginCkpt  ckpt_forced (if forced), ckpt_begin
//	Persisted  opens the drain window, records table_persist
//	Committed  Commits, CkptBusy, ckpt_complete, the drain latency; closes
//	           the drain window
//	NextEpoch  Epochs, EpochStart, ckpt_stage, the epoch root's rotation,
//	           epoch_begin, the sample
//
// Journal and shadow call them in that order; ThyNVM calls Committed last,
// from finalize, once its background drain commits; an ideal system's free
// checkpoint skips Persisted. Shadow's buffer-pressure flush is BeginCkpt,
// Persisted and Committed inside an epoch. The Collector keeps events,
// retained spans and samples in separate streams, so only the order within
// each stream is part of a trace (DESIGN.md §12).

// ckptMark is the checkpoint begun last: the epoch it closes, the cycle it
// began and whether table or buffer pressure forced it.
type ckptMark struct {
	epoch  uint64
	start  mem.Cycle
	forced bool
}

// EpochExpired reports whether the running epoch has lasted epochLen cycles
// by now.
func (d *Durable) EpochExpired(now, epochLen mem.Cycle) bool {
	return now >= d.EpochStart && now-d.EpochStart >= epochLen
}

// EndEpoch ends epoch at now and begins its checkpoint (BeginCkpt).
func (d *Durable) EndEpoch(now mem.Cycle, epoch uint64, forced bool) {
	if d.Tele.On() {
		d.Tele.Rec().Event(uint64(now), obs.EvEpochEnd, epoch, 0)
	}
	d.BeginCkpt(now, epoch, forced)
}

// BeginCkpt begins a checkpoint of epoch at now; forced reports that table
// or buffer pressure, not the epoch timer, asked for it.
func (d *Durable) BeginCkpt(now mem.Cycle, epoch uint64, forced bool) {
	d.ckpt = ckptMark{epoch: epoch, start: now, forced: forced}
	if d.Tele.On() {
		rec := d.Tele.Rec()
		if forced {
			rec.Event(uint64(now), obs.EvCkptForced, epoch, 0)
		}
		rec.Event(uint64(now), obs.EvCkptBegin, epoch, 0)
	}
}

// Persisted records that the checkpoint's blob of blobLen bytes persisted at
// blobDone: it opens the drain window on the checkpoint track at the
// checkpoint's start, with the table persist nested inside it.
func (d *Durable) Persisted(blobLen int, blobDone mem.Cycle) {
	if !d.Tele.On() {
		return
	}
	rec, start := d.Tele.Rec(), uint64(d.ckpt.start)
	rec.BeginSpan(obs.TrackCkpt, start, obs.SpanCkptDrain, obs.CauseCkptDrain, d.ckpt.epoch)
	rec.BeginSpan(obs.TrackCkpt, start, obs.SpanTablePersist, obs.CauseCkptDrain, uint64(blobLen))
	rec.EndSpan(obs.TrackCkpt, uint64(blobDone))
}

// Committed records that the checkpoint became durable at at: it counts the
// commit and its busy time, emits ckpt_complete and the drain latency, and
// closes the drain window. With no window open (an ideal system's free
// commit, or a recorder attached mid-drain) the close is a no-op.
func (d *Durable) Committed(at mem.Cycle) {
	drain := at - d.ckpt.start
	d.Counts.Commits++
	d.Counts.CkptBusy += drain
	if d.Tele.On() {
		rec := d.Tele.Rec()
		rec.Event(uint64(at), obs.EvCkptComplete, d.ckpt.epoch, uint64(drain))
		rec.Latency(obs.HistCkptDrain, uint64(drain))
		rec.EndSpan(obs.TrackCkpt, uint64(at))
	}
}

// NextEpoch begins the epoch after the checkpointed one at resume, when the
// processor leaves the checkpoint: it counts the closed epoch, restarts the
// epoch clock, records the in-line staging [start, resume) (none for a
// checkpoint that took no cycles), rotates the epoch root and takes the
// closed epoch's sample. meta supplies the scheme's own sample fields; the
// ledger fills the epoch, its bounds and Forced.
func (d *Durable) NextEpoch(resume mem.Cycle, meta EpochMeta) {
	ck, next := d.ckpt, d.ckpt.epoch+1
	meta.Epoch, meta.Start, meta.End, meta.Forced = ck.epoch, d.EpochStart, ck.start, ck.forced
	d.Counts.Epochs++
	d.EpochStart = resume
	if !d.Tele.On() {
		return
	}
	rec := d.Tele.Rec()
	if resume > ck.start {
		rec.BeginSpan(obs.TrackCPU, uint64(ck.start), obs.SpanCkptStage, obs.CauseCkptStage, 0)
		rec.EndSpan(obs.TrackCPU, uint64(resume))
	}
	rec.EndSpan(obs.TrackCPU, uint64(resume))
	rec.BeginSpan(obs.TrackCPU, uint64(resume), obs.SpanEpoch, obs.CauseExec, next)
	rec.Event(uint64(resume), obs.EvEpochBegin, next, 0)
	// The sample is the last thing emitted: its deltas cover everything the
	// closed epoch and its checkpoint wrote, so the series sums to the
	// cumulative Stats at this instant.
	d.Tele.Sample(meta, d.Stats())
}

// Recovered records a completed recovery at cycle at with report rep: the
// report becomes LastRecovery, the epoch clock restarts at at, and a
// fallback to an older generation is logged as recovery_fallback (A = the
// generation recovered to, B = the fallback depth).
func (d *Durable) Recovered(rep RecoveryReport, at mem.Cycle) {
	d.Last, d.EpochStart = rep, at
	if rep.Class == RecoveredFallback && d.Tele.On() {
		d.Tele.Rec().Event(uint64(at), obs.EvRecoveryFallback, rep.Generation, uint64(rep.FallbackDepth))
	}
}

// BlockRead records a block read issued at now and complete at done, and
// returns done.
func (d *Durable) BlockRead(now, done mem.Cycle) mem.Cycle {
	if d.Tele.On() {
		d.Tele.Rec().Latency(obs.HistBlockRead, uint64(done-now))
	}
	return done
}

// BlockWrite records a block write issued at now that its issuer may leave
// at ack (not when the posted write drains), and returns ack.
func (d *Durable) BlockWrite(now, ack mem.Cycle) mem.Cycle {
	if d.Tele.On() {
		d.Tele.Rec().Latency(obs.HistBlockWrite, uint64(ack-now))
	}
	return ack
}

// QueuedWrite is BlockWrite for a write the device acknowledges at ack: its
// wait [now, ack) is posted-write queue backpressure, recorded as a CPU
// stall.
func (d *Durable) QueuedWrite(now, ack mem.Cycle) mem.Cycle {
	d.Tele.StallSpan(now, ack, obs.CauseQueueFull)
	return d.BlockWrite(now, ack)
}

// SetRecorder implements Controller for a scheme whose epoch ids count its
// epochs since the last ResetStats (Counts.Epochs); see Attach.
func (d *Durable) SetRecorder(r obs.Recorder) { d.Attach(r, d.Counts.Epochs) }

// CommitAt implements Controller for a stop-the-world scheme: its commit is
// durable before BeginCheckpoint returns, so nothing is ever draining.
func (d *Durable) CommitAt() (inFlight bool, at mem.Cycle) { return false, 0 }

// DrainCheckpoint implements Controller for a stop-the-world scheme: there
// is nothing to wait for.
func (d *Durable) DrainCheckpoint(now mem.Cycle) mem.Cycle { return now }

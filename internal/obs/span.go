package obs

// Span-based cycle attribution.
//
// Instrumented components emit begin/end span pairs on a small set of
// tracks (CPU, checkpoint engine, devices, cache). Spans nest within a
// track; the collector keeps a per-track stack and computes each span's
// self time (total minus enclosed children) at EndSpan. On the CPU track
// the depth-0 span is the epoch root, covering exactly one epoch from
// boundary to boundary, so the self times of an epoch's spans partition
// its cycles: per-epoch attribution rows sum exactly to End-Start, and
// consecutive rows tile the run (Attribution.Check verifies both).
//
// High-volume kinds (per-block cache fills/writebacks, per-lookup BTT
// misses) are folded into the aggregate table only and not retained as
// individual spans, bounding memory on long runs.

// TrackID names one span timeline. Spans nest within a track and never
// across tracks.
type TrackID uint8

const (
	// TrackCPU carries execution epochs and everything that stalls the
	// core in-line: cache flushes, checkpoint staging, queue/drain waits.
	TrackCPU TrackID = iota
	// TrackCkpt carries background checkpoint work overlapped with
	// execution: the drain window and table/blob persists inside it.
	TrackCkpt
	// TrackNVM and TrackDRAM carry device-level stalls (posted-write
	// queue pressure).
	TrackNVM
	TrackDRAM
	// TrackCache carries hierarchy fill and writeback windows.
	TrackCache

	NumTracks
)

var trackNames = [NumTracks]string{
	TrackCPU:   "cpu",
	TrackCkpt:  "ckpt",
	TrackNVM:   "nvm",
	TrackDRAM:  "dram",
	TrackCache: "cache",
}

// String names the track as it appears in exported traces.
func (t TrackID) String() string {
	if t < NumTracks {
		return trackNames[t]
	}
	return "unknown"
}

// SpanKind classifies what a span's interval was spent on.
type SpanKind uint8

const (
	// SpanEpoch is the CPU-track depth-0 root: one execution epoch,
	// boundary to boundary. Arg = epoch id.
	SpanEpoch SpanKind = iota
	// SpanCacheFlush is the pre-checkpoint dirty-cache flush (CPU
	// stalled). Arg = dirty blocks flushed.
	SpanCacheFlush
	// SpanCkptStage is the in-line portion of BeginCheckpoint: staging
	// working copies and posting the checkpoint, until the CPU resumes.
	SpanCkptStage
	// SpanStall is a generic in-line wait attributed by its Cause
	// (queue-full backpressure, commit waits, table-miss penalties).
	SpanStall
	// SpanRecoveryReplay is post-crash recovery latency.
	SpanRecoveryReplay
	// SpanCkptDrain is the background drain window on TrackCkpt: CPU
	// resume to durable commit. Arg = epoch id.
	SpanCkptDrain
	// SpanTablePersist is the BTT/PTT + state blob persist inside the
	// drain window. Arg = blob bytes.
	SpanTablePersist
	// SpanDeviceDrain is an explicit harness drain of an in-flight
	// checkpoint (Machine.Drain).
	SpanDeviceDrain
	// SpanCacheFetch is a hierarchy miss fill from the level below.
	// Arg = block address. Aggregated only; not retained per-span.
	SpanCacheFetch
	// SpanCacheWriteback is a dirty-block writeback to the level below.
	// Arg = block address. Aggregated only; not retained per-span.
	SpanCacheWriteback

	NumSpanKinds
)

var spanKindNames = [NumSpanKinds]string{
	SpanEpoch:          "epoch",
	SpanCacheFlush:     "cache_flush",
	SpanCkptStage:      "ckpt_stage",
	SpanStall:          "stall",
	SpanRecoveryReplay: "recovery_replay",
	SpanCkptDrain:      "ckpt_drain",
	SpanTablePersist:   "table_persist",
	SpanDeviceDrain:    "device_drain",
	SpanCacheFetch:     "cache_fetch",
	SpanCacheWriteback: "cache_writeback",
}

// String names the span kind as it appears in exported traces.
func (k SpanKind) String() string {
	if k < NumSpanKinds {
		return spanKindNames[k]
	}
	return "unknown"
}

// Cause is the typed stall-attribution taxonomy. Every span carries one;
// on the CPU track, an epoch's cycles are attributed to causes by span
// self time, with CauseExec (the root's own cause) absorbing whatever no
// child claims — i.e. actual execution.
type Cause uint8

const (
	// CauseExec is unclaimed epoch time: the core actually executing.
	CauseExec Cause = iota
	// CauseCacheFlush is the pre-checkpoint dirty-cache flush.
	CauseCacheFlush
	// CauseCkptStage is in-line checkpoint staging (BeginCheckpoint until
	// the CPU resumes).
	CauseCkptStage
	// CauseCkptDrain is waiting on a previous checkpoint's drain (hard
	// epoch-overlap bound, explicit Drain, defensive commit waits).
	CauseCkptDrain
	// CauseWriteBuffer is a write stalled on checkpoint working-copy
	// buffering (cooperation disabled or page-unit flush in flight).
	CauseWriteBuffer
	// CauseQueueFull is device posted-write queue backpressure.
	CauseQueueFull
	// CauseBTTMiss is the extra translation-table lookup penalty when a
	// table has spilled past its on-controller capacity.
	CauseBTTMiss
	// CauseRecoveryReplay is post-crash recovery work.
	CauseRecoveryReplay

	NumCauses
)

var causeNames = [NumCauses]string{
	CauseExec:           "exec",
	CauseCacheFlush:     "cache_flush",
	CauseCkptStage:      "ckpt_stage",
	CauseCkptDrain:      "ckpt_drain",
	CauseWriteBuffer:    "write_buffer",
	CauseQueueFull:      "queue_full",
	CauseBTTMiss:        "btt_miss",
	CauseRecoveryReplay: "recovery_replay",
}

// String names the cause as it appears in exported traces and reports.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// Span is one completed interval on a track. Self is Start..End minus the
// total time of spans nested inside it on the same track.
type Span struct {
	Start uint64
	End   uint64
	Self  uint64
	Epoch uint64
	Arg   uint64
	Track TrackID
	Kind  SpanKind
	Cause Cause
	Depth uint8
}

// EpochAttrib is one per-epoch cycle-attribution row: the epoch's CPU
// cycles partitioned by cause. Invariant (Attribution.Check): the Cycles
// entries sum exactly to End-Start, and consecutive rows tile the run.
type EpochAttrib struct {
	Epoch  uint64
	Start  uint64
	End    uint64
	Cycles [NumCauses]uint64
}

// AggCell is one cell of the (track, kind, cause) aggregate table.
type AggCell struct {
	Count uint64
	Total uint64
	Self  uint64
}

// retainSpan reports whether a completed span is kept individually in
// Collector.Spans (all feed the aggregate table and the attribution rows
// regardless). Per-block cache traffic, per-lookup table-miss penalties,
// and per-request queue stalls are high-volume and aggregate-only: on a
// 200k-op run they would dominate the span list ~100:1.
func retainSpan(kind SpanKind, cause Cause) bool {
	switch kind {
	case SpanCacheFetch, SpanCacheWriteback:
		return false
	}
	return cause != CauseBTTMiss && cause != CauseQueueFull
}

// spanFrame is one open span on a track stack.
type spanFrame struct {
	start      uint64
	childTotal uint64
	epoch      uint64
	arg        uint64
	kind       SpanKind
	cause      Cause
}

// BeginSpan implements Recorder: it opens a span on the given track at
// the given cycle. Spans on one track must nest (close in LIFO order).
// For SpanEpoch roots arg is the epoch id; nested spans inherit the
// enclosing span's epoch.
//
//thynvm:hotpath
func (c *Collector) BeginSpan(track TrackID, cycle uint64, kind SpanKind, cause Cause, arg uint64) {
	if track >= NumTracks || kind >= NumSpanKinds || cause >= NumCauses {
		return
	}
	epoch := arg
	if n := len(c.stacks[track]); n > 0 {
		epoch = c.stacks[track][n-1].epoch
	}
	c.stacks[track] = append(c.stacks[track], spanFrame{
		start: cycle,
		epoch: epoch,
		arg:   arg,
		kind:  kind,
		cause: cause,
	})
	if track == TrackCPU && len(c.stacks[track]) == 1 {
		c.row = EpochAttrib{Epoch: epoch, Start: cycle}
		c.rowOpen = true
	}
}

// EndSpan implements Recorder: it closes the innermost open span on the
// track, computes its self time, and folds it into the aggregate table,
// the retained span list, and (on the CPU track) the open attribution
// row. EndSpan with no open span is a no-op, so components may close
// defensively (e.g. a drain-complete path whose begin predates attach).
//
//thynvm:hotpath
func (c *Collector) EndSpan(track TrackID, cycle uint64) {
	if track >= NumTracks {
		return
	}
	n := len(c.stacks[track])
	if n == 0 {
		return
	}
	f := c.stacks[track][n-1]
	c.stacks[track] = c.stacks[track][:n-1]
	if cycle < f.start {
		cycle = f.start
	}
	total := cycle - f.start
	self := uint64(0)
	if total > f.childTotal {
		self = total - f.childTotal
	}
	if n > 1 {
		c.stacks[track][n-2].childTotal += total
	}
	cell := &c.Agg[track][f.kind][f.cause]
	cell.Count++
	cell.Total += total
	cell.Self += self
	if retainSpan(f.kind, f.cause) {
		c.Spans = append(c.Spans, Span{
			Start: f.start,
			End:   cycle,
			Self:  self,
			Epoch: f.epoch,
			Arg:   f.arg,
			Track: track,
			Kind:  f.kind,
			Cause: f.cause,
			Depth: uint8(n - 1),
		})
	}
	if track == TrackCPU && c.rowOpen {
		c.row.Cycles[f.cause] += self
		if n == 1 {
			c.row.End = cycle
			c.Attrib = append(c.Attrib, c.row)
			c.rowOpen = false
		}
	}
}

// OpenSpans reports how many spans are currently open across all tracks
// (nonzero after a crash left spans unclosed, or mid-epoch).
func (c *Collector) OpenSpans() int {
	n := 0
	for t := range c.stacks {
		n += len(c.stacks[t])
	}
	return n
}

// Attribution is a run's per-epoch cycle-attribution rows, in epoch order.
type Attribution []EpochAttrib

// Check verifies the accounting invariant over the rows: every row's cause
// cycles sum exactly to its End-Start, and consecutive rows tile the
// timeline (row[i].End == row[i+1].Start).
func (a Attribution) Check() error {
	for i := range a {
		r := &a[i]
		var sum uint64
		for _, v := range r.Cycles {
			sum += v
		}
		if sum != r.End-r.Start {
			return attribError{row: i, epoch: r.Epoch, got: sum, want: r.End - r.Start, tiling: false}
		}
		if i > 0 && a[i-1].End != r.Start {
			return attribError{row: i, epoch: r.Epoch, got: a[i-1].End, want: r.Start, tiling: true}
		}
	}
	return nil
}

// Sum returns the total cycles attributed to each cause across all rows.
func (a Attribution) Sum() [NumCauses]uint64 {
	var t [NumCauses]uint64
	for i := range a {
		for cs, v := range a[i].Cycles {
			t[cs] += v
		}
	}
	return t
}

// attribError reports a broken accounting invariant without importing fmt
// on the hot path's package paths (construction is cold).
type attribError struct {
	row    int
	epoch  uint64
	got    uint64
	want   uint64
	tiling bool
}

func (e attribError) Error() string {
	if e.tiling {
		return "obs: attribution rows do not tile: row " + itoa(uint64(e.row)) +
			" (epoch " + itoa(e.epoch) + ") starts at " + itoa(e.want) +
			" but previous row ends at " + itoa(e.got)
	}
	return "obs: attribution row " + itoa(uint64(e.row)) + " (epoch " + itoa(e.epoch) +
		") cause cycles sum to " + itoa(e.got) + ", want " + itoa(e.want)
}

// itoa is a minimal uint64 formatter (keeps fmt off this file's paths).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

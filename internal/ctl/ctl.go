// Package ctl defines the contract between the simulation harness and a
// memory controller that implements some crash-consistency scheme: ThyNVM
// itself (internal/core) and the paper's comparison points (internal/
// baseline: Ideal DRAM, Ideal NVM, Journaling, Shadow paging).
//
// The harness drives a CPU + cache model on top of a Controller. Before
// each operation it polls CheckpointDue; when due, it stalls the CPU,
// flushes dirty cache blocks through WriteBlock (the paper's hardware data
// flush, §4.4) and calls BeginCheckpoint with the serialized CPU context.
// Crash/Recover model power failure at an arbitrary cycle.
package ctl

import (
	"errors"
	"fmt"

	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// Controller is a memory controller enforcing crash consistency over a
// physical address space. Addresses handed to ReadBlock/WriteBlock are
// physical and block-aligned; buffers are exactly one cache block.
type Controller interface {
	// ReadBlock performs a timed read and returns its completion cycle.
	ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle
	// WriteBlock performs a timed write and returns the cycle at which the
	// issuer may proceed (writes may be posted and complete later).
	WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle

	// CheckpointDue reports whether the controller wants the CPU to begin
	// a checkpoint at cycle now (epoch timer expired or tables near
	// overflow). cpuDirty tells the controller that the processor caches
	// hold dirty blocks it cannot see — an expired epoch timer then fires
	// even if the controller itself has nothing staged. It never returns
	// true while a previous checkpoint is still draining.
	CheckpointDue(now mem.Cycle, cpuDirty bool) bool

	// BeginCheckpoint ends the current epoch. The caller must already
	// have flushed dirty cache blocks through WriteBlock. cpuState is the
	// processor context to persist with the checkpoint. The return value
	// is the cycle at which the processor may resume execution; the
	// checkpoint itself may keep draining in the background.
	BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle

	// DrainCheckpoint blocks until any in-flight checkpoint has fully
	// committed and returns that cycle. Used at end of simulation and by
	// stop-the-world schemes' tests.
	DrainCheckpoint(now mem.Cycle) mem.Cycle

	// Crash models a power failure at cycle at: volatile devices and
	// controller state are lost; posted NVM writes that have not completed
	// by at never become durable.
	Crash(at mem.Cycle)

	// Recover rebuilds a consistent software-visible memory image from
	// durable NVM contents after a crash. It returns the CPU state saved
	// with the recovered checkpoint (nil if the system crashed before any
	// checkpoint committed) and the recovery latency in cycles.
	Recover() (cpuState []byte, latency mem.Cycle, err error)

	// PeekBlock reads the currently software-visible version of the
	// whole-block span buf at physical addr without advancing time
	// (verification only). addr is block-aligned and len(buf) a multiple of
	// the block size; a span reads the same bytes as one peek per block.
	PeekBlock(addr uint64, buf []byte)

	// Stats returns accumulated controller statistics.
	Stats() Stats
	// ResetStats zeroes all statistics, including device counters.
	ResetStats()

	// SetRecoverInterrupt arms a one-shot power failure at cycle at of the
	// next Recover's timeline (Recover starts at cycle 0) for
	// crash-during-recovery torture; 0 disarms. The next Recover consumes
	// the cut. A cut at or beyond that recovery's natural completion lets it
	// finish normally.
	SetRecoverInterrupt(at mem.Cycle)
	// LastRecovery classifies the last Recover call; it is valid once that
	// call returns, also when it failed with ErrUnrecoverable.
	LastRecovery() RecoveryReport

	// CommitAt reports whether a checkpoint is draining and the cycle at
	// which it becomes durable. Harnesses use it to reason about crash
	// windows; stop-the-world schemes never drain.
	CommitAt() (inFlight bool, at mem.Cycle)

	// SetWriteFault and SetCrashFault install fault hooks on the durable
	// (NVM) device for crash-torture campaigns; see mem.WriteFault and
	// mem.CrashFault for the fault models.
	SetWriteFault(f mem.WriteFault)
	SetCrashFault(f mem.CrashFault)
	// MetadataKind classifies a durable-device address, so a fault injector
	// can target the scheme's persist points without re-deriving its
	// address-space layout.
	MetadataKind(addr uint64) MetadataKind
	// NVMStorage is the durable device's backing store, for media-level
	// operations (fault injection, integrity audits).
	NVMStorage() *mem.Storage

	// SetRecorder attaches a telemetry recorder to the controller and its
	// devices; nil detaches.
	SetRecorder(r obs.Recorder)

	// Release ends the controller's life: its devices hand their storage
	// chunks to the pool the next system's devices take chunks from. Any
	// later access panics; a second Release does nothing.
	Release()
}

// Durable implements the part of Controller every built-in system shares:
// the fault hooks forwarded to its durable device, the armed recovery cut,
// the last recovery's report, the statistics, the telemetry attach, the
// epoch ledger (ledger.go), the stop-the-world CommitAt and DrainCheckpoint,
// and the release of its devices. A controller embeds it; its Recover
// consumes Cut and records Last, and it counts into Counts and samples
// through Tele.
type Durable struct {
	Dev        *mem.Device    // the durable device
	Vol        *mem.Device    // the volatile device; nil for a one-device system
	Cut        mem.Cycle      // armed recovery interrupt; 0 when disarmed
	Last       RecoveryReport // the last Recover's report
	Counts     Stats          // the controller's own counters, without the devices'
	Tele       EpochSampler   // the per-epoch telemetry sampler
	EpochStart mem.Cycle      // the cycle the running epoch began
	ckpt       ckptMark       // the checkpoint begun last
}

// Stats implements Controller: the controller's counters plus its devices'.
// A one-device system reports its device under that device's kind.
func (d *Durable) Stats() Stats {
	st := d.Counts
	switch {
	case d.Vol != nil:
		st.NVM, st.DRAM = d.Dev.Stats(), d.Vol.Stats()
	case d.Dev.Spec().Name == "DRAM":
		st.DRAM = d.Dev.Stats()
	default:
		st.NVM = d.Dev.Stats()
	}
	return st
}

// ResetStats implements Controller: it zeroes the counters and the devices'
// and rebases the epoch sampler on them.
func (d *Durable) ResetStats() {
	d.Counts = Stats{}
	d.Dev.ResetStats()
	if d.Vol != nil {
		d.Vol.ResetStats()
	}
	d.Tele.Rebase(d.Stats())
}

// LoadHome pre-loads data into the Home region of the durable device,
// bypassing timing (test setup and workload initialization).
func (d *Durable) LoadHome(addr uint64, data []byte) { d.Dev.Poke(addr, data) }

// Attach is SetRecorder's shared body: it attaches r to the devices and the
// epoch sampler, whose deltas rebase at the current stats, and, when r
// records, opens the root span of the running epoch, whose id is epoch and
// which began at EpochStart. nil detaches.
func (d *Durable) Attach(r obs.Recorder, epoch uint64) {
	d.Dev.SetRecorder(r)
	if d.Vol != nil {
		d.Vol.SetRecorder(r)
	}
	d.Tele.Attach(r, d.Stats())
	if d.Tele.On() {
		r.BeginSpan(obs.TrackCPU, uint64(d.EpochStart), obs.SpanEpoch, obs.CauseExec, epoch)
	}
}

// CheckAccess panics unless n bytes at addr are one aligned block inside a
// physBytes address space: a controller access that is not is a harness
// bug.
func CheckAccess(physBytes, addr uint64, n int) {
	if n != mem.BlockSize || addr%mem.BlockSize != 0 {
		panic(fmt.Sprintf("ctl: access must be one aligned block (addr=%#x n=%d)", addr, n))
	}
	if addr+mem.BlockSize > physBytes {
		panic(fmt.Sprintf("ctl: physical address %#x beyond configured space %#x", addr, physBytes))
	}
}

// Release implements Controller.
func (d *Durable) Release() {
	d.Dev.Release()
	if d.Vol != nil {
		d.Vol.Release()
	}
}

// SetWriteFault implements Controller.
func (d *Durable) SetWriteFault(f mem.WriteFault) { d.Dev.SetWriteFault(f) }

// SetCrashFault implements Controller.
func (d *Durable) SetCrashFault(f mem.CrashFault) { d.Dev.SetCrashFault(f) }

// SetRecoverInterrupt implements Controller.
func (d *Durable) SetRecoverInterrupt(at mem.Cycle) { d.Cut = at }

// LastRecovery implements Controller.
func (d *Durable) LastRecovery() RecoveryReport { return d.Last }

// NVMStorage implements Controller.
func (d *Durable) NVMStorage() *mem.Storage { return d.Dev.Storage() }

// ErrRecoverInterrupted is returned by Recover when the cut armed with
// SetRecoverInterrupt fired before the recovered image became fully
// durable: power failed *during* recovery. The controller is left in its
// post-crash state — volatile state reset, NVM holding whatever the
// interrupted recovery made durable — and Recover may simply be called
// again, exactly like a real machine rebooting twice.
var ErrRecoverInterrupted = errors.New("ctl: power failed during recovery")

// ErrUnrecoverable is wrapped by Recover when durable state is damaged
// beyond what the scheme can repair: no retained checkpoint generation is
// intact, falling back would read data a newer generation already
// overwrote, or the post-recovery integrity scrub found corrupt blocks.
// It is a clean refusal — the controller guarantees it never silently
// returns a wrong image instead.
var ErrUnrecoverable = errors.New("ctl: durable state unrecoverable")

// RecoveryClass is the typed degraded-mode verdict of one recovery.
type RecoveryClass int

const (
	// RecoveredClean: the newest retained checkpoint generation was intact
	// and the integrity scrub (when enabled) found nothing.
	RecoveredClean RecoveryClass = iota
	// RecoveredFallback: one or more newer generations were damaged;
	// recovery walked back to an older intact one (depth in the report).
	RecoveredFallback
	// Unrecoverable: no safe generation existed; Recover returned an error
	// wrapping ErrUnrecoverable rather than a possibly-wrong image.
	Unrecoverable
)

// String names the class as it appears in verdict logs.
func (c RecoveryClass) String() string {
	switch c {
	case RecoveredClean:
		return "recovered-clean"
	case RecoveredFallback:
		return "recovered-fallback"
	case Unrecoverable:
		return "detected-unrecoverable"
	}
	return "unknown"
}

// RecoveryReport describes how the last Recover call went: its verdict
// class, how far it had to fall back, and what the integrity machinery
// saw along the way.
type RecoveryReport struct {
	Class RecoveryClass
	// FallbackDepth counts retained generation slots that held data but
	// failed validation (header or blob checksum) — the generations walked
	// past. Zero for a clean recovery.
	FallbackDepth int
	// Generation is the sequence number of the checkpoint recovered to
	// (meaningful when a checkpoint was found).
	Generation uint64
	// ChecksumFailures counts corrupt blocks the post-recovery integrity
	// scrub found (only ever non-zero alongside Unrecoverable).
	ChecksumFailures int
	// ColdStart is set when no checkpoint had ever committed and the
	// system legitimately restarted from its initial image.
	ColdStart bool
}

// MetadataKind classifies a durable-device address for fault injection.
type MetadataKind int

const (
	// MetaNone: ordinary data (home region, checkpoint slots).
	MetaNone MetadataKind = iota
	// MetaHeader: a commit-header slot (the scheme's atomicity hinge).
	MetaHeader
	// MetaTable: a metadata blob area (serialized BTT/PTT, journal, page
	// table).
	MetaTable
)

// Stats aggregates controller- and device-level counters used to reproduce
// the paper's figures. The json tags are part of the bench/metrics wire
// format; keep them stable.
type Stats struct {
	// Epochs counts completed execution phases; Commits counts fully
	// durable checkpoints.
	Epochs  uint64 `json:"epochs"`
	Commits uint64 `json:"commits"`

	// CkptStall is execution time the CPU lost to *in-line* waits caused
	// by checkpointing (cooperation-off page waits, waits for a previous
	// checkpoint to commit, forced mid-epoch flushes). Time spent inside
	// BeginCheckpoint calls is visible to the harness through the returned
	// resume cycle and accounted there, not here.
	CkptStall mem.Cycle `json:"ckpt_stall_cycles"`
	// CkptBusy is the total time some checkpoint was draining in the
	// background (overlap with execution does not count as stall).
	CkptBusy mem.Cycle `json:"ckpt_busy_cycles"`

	// MemStall is execution time lost to raw memory backpressure
	// (write-queue-full waits) outside checkpoint causes.
	MemStall mem.Cycle `json:"mem_stall_cycles"`

	// Migrations counts pages switched between checkpointing schemes;
	// In = block remapping -> page writeback, Out = the reverse.
	MigrationsIn  uint64 `json:"migrations_in"`
	MigrationsOut uint64 `json:"migrations_out"`

	// TableSpills counts BTT allocations beyond the configured capacity
	// (the paper's "virtualized table" fallback).
	TableSpills uint64 `json:"table_spills"`

	// PeakBTTLive and PeakPTTLive record the high-water mark of live
	// translation-table entries (metadata pressure).
	PeakBTTLive uint64 `json:"peak_btt_live"`
	PeakPTTLive uint64 `json:"peak_ptt_live"`

	// BufferedBlockWrites counts stores absorbed by the cooperation
	// mechanism (block remapping temporarily handling page-writeback data,
	// §3.4).
	BufferedBlockWrites uint64 `json:"buffered_block_writes"`

	// NVM and DRAM are the device counters, including per-source NVM
	// write-traffic breakdown (Figure 8).
	NVM  mem.DeviceStats `json:"nvm"`
	DRAM mem.DeviceStats `json:"dram"`
}

// NVMWriteBytes returns total bytes written to NVM.
func (s Stats) NVMWriteBytes() uint64 { return s.NVM.BytesWritten }

// NVMWriteBytesBy returns NVM write bytes from the given source.
func (s Stats) NVMWriteBytesBy(src mem.WriteSource) uint64 {
	return s.NVM.BytesBySource[src]
}

// CheckAccounting verifies the cross-counter invariants every controller
// must maintain: on each device, the per-source write-byte breakdown sums
// exactly to the total bytes written (no write may escape attribution —
// Figure 8 depends on it).
func (s Stats) CheckAccounting() error {
	check := func(name string, d mem.DeviceStats) error {
		var sum uint64
		for _, b := range d.BytesBySource {
			sum += b
		}
		if sum != d.BytesWritten {
			return fmt.Errorf("ctl: %s BytesBySource sums to %d, but BytesWritten is %d (unattributed: %d)",
				name, sum, d.BytesWritten, int64(d.BytesWritten)-int64(sum))
		}
		return nil
	}
	if err := check("NVM", s.NVM); err != nil {
		return err
	}
	return check("DRAM", s.DRAM)
}

// Package sim wires the simulated system together: an in-order core
// (internal/cpu) and cache hierarchy (internal/cache) on top of a
// crash-consistency memory controller (internal/core or internal/baseline),
// with epoch orchestration, crash injection, recovery, and the metrics the
// paper's figures are built from.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"thynvm/internal/cache"
	"thynvm/internal/cpu"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// Machine is one simulated system instance. It is not safe for concurrent
// use; the whole simulation is deterministic and single-threaded.
type Machine struct {
	ctrl   ctl.Controller
	hier   *cache.Hierarchy
	cached bool // hier was built with cache levels
	core   *cpu.Core
	now    mem.Cycle

	// flushIssueCost is the pipeline cost charged per dirty block during
	// the checkpoint cache flush.
	flushIssueCost mem.Cycle

	// Program-level state folded into the checkpointed CPU state, so a
	// workload (e.g. a key-value store) can resume from recovery.
	saveProg    func() []byte
	restoreProg func([]byte) error

	// PreCheckpoint, when set, runs after the cache flush and immediately
	// before BeginCheckpoint — the instant whose memory image a recovery
	// of this checkpoint reproduces. The verification oracle hooks here.
	PreCheckpoint func(m *Machine)

	// PostCheckpoint, when set, runs after BeginCheckpoint returns, once
	// m.Now() reflects the foreground checkpoint stall. Torture harnesses
	// use it to ask the controller when the just-begun commit will (or
	// did) become durable.
	PostCheckpoint func(m *Machine)

	// recoverCuts are pending crash-during-recovery instants, expressed on
	// the recovery timeline (each Recover attempt restarts at cycle 0).
	// Recover consumes one per attempt, front first.
	recoverCuts     []mem.Cycle
	recoverRestarts uint64

	// autoCheckpointOff suppresses the implicit per-operation checkpoint
	// poll. Applications whose program state is only consistent at
	// transaction boundaries (the real system would resume mid-operation
	// from the restored program counter, which a Go workload cannot)
	// disable it and call CheckpointIfDue between transactions.
	autoCheckpointOff bool

	ckptCalls     uint64
	ckptCallStall mem.Cycle
	flushedBlocks uint64

	rec   obs.Recorder
	recOn bool

	// peekBlock stages Peek's blocks. A local array would escape through
	// the ctl.Controller call, one heap allocation per Peek.
	peekBlock [mem.BlockSize]byte
}

// NewMachine builds a machine over ctrl. withCaches selects the paper's
// three-level hierarchy; without it the core talks to the controller
// directly (useful for controller-focused experiments and tests).
func NewMachine(ctrl ctl.Controller, withCaches bool) *Machine {
	m := &Machine{ctrl: ctrl, cached: withCaches, core: &cpu.Core{}, flushIssueCost: 4}
	if withCaches {
		m.hier = cache.Default(ctrl)
	} else {
		m.hier = cache.NewHierarchy(ctrl)
	}
	return m
}

// SetRecorder attaches a telemetry recorder to the machine and, via
// ctl.Attach, to its controller. It reports whether the controller accepted
// the recorder (all in-tree controllers do). Pass nil to detach.
func (m *Machine) SetRecorder(r obs.Recorder) bool {
	m.rec = r
	m.recOn = r != nil && r.Enabled()
	m.hier.SetRecorder(r)
	return ctl.Attach(m.ctrl, r)
}

// Now returns the current simulated cycle.
func (m *Machine) Now() mem.Cycle { return m.now }

// Core exposes the CPU model (read-only use expected).
func (m *Machine) Core() *cpu.Core { return m.core }

// Controller exposes the memory controller under test.
func (m *Machine) Controller() ctl.Controller { return m.ctrl }

// Caches exposes the cache hierarchy.
func (m *Machine) Caches() *cache.Hierarchy { return m.hier }

// SetProgramState registers the workload's own durable state: save is
// serialized into every checkpoint, restore is invoked on recovery.
func (m *Machine) SetProgramState(save func() []byte, restore func([]byte) error) {
	m.saveProg = save
	m.restoreProg = restore
}

// composeState packs core + program state for BeginCheckpoint.
func (m *Machine) composeState() []byte {
	coreState := m.core.State()
	var prog []byte
	if m.saveProg != nil {
		prog = m.saveProg()
	}
	out := make([]byte, 4, 4+len(coreState)+len(prog))
	binary.LittleEndian.PutUint32(out, uint32(len(coreState)))
	out = append(out, coreState...)
	out = append(out, prog...)
	return out
}

func (m *Machine) restoreState(state []byte) error {
	if len(state) < 4 {
		return fmt.Errorf("sim: checkpointed state too short (%d bytes)", len(state))
	}
	n := int(binary.LittleEndian.Uint32(state))
	if 4+n > len(state) {
		return fmt.Errorf("sim: corrupt checkpointed state header")
	}
	if err := m.core.LoadState(state[4 : 4+n]); err != nil {
		return err
	}
	if m.restoreProg != nil {
		return m.restoreProg(state[4+n:])
	}
	return nil
}

// poll services a due checkpoint.
func (m *Machine) poll() {
	if m.autoCheckpointOff {
		return
	}
	m.CheckpointIfDue()
}

// DisableAutoCheckpoint turns off the implicit per-operation checkpoint
// poll; the workload must call CheckpointIfDue at points where its own
// state is quiescent (e.g. between transactions).
func (m *Machine) DisableAutoCheckpoint() { m.autoCheckpointOff = true }

// CheckpointIfDue performs a checkpoint if the controller requests one.
func (m *Machine) CheckpointIfDue() {
	if m.ctrl.CheckpointDue(m.now, m.hier.DirtyBlocks() > 0) {
		m.Checkpoint()
	}
}

// Checkpoint forces an epoch boundary now: the core stalls, dirty cache
// blocks flush to the memory controller, and the controller begins its
// checkpointing phase (which may drain in the background).
func (m *Machine) Checkpoint() {
	start := m.now
	if m.recOn {
		// Open before the flush so queue stalls inside it nest as
		// children; the dirty count is only known afterwards, so the span
		// arg carries the flush window instead.
		m.rec.BeginSpan(obs.TrackCPU, uint64(start), obs.SpanCacheFlush, obs.CauseCacheFlush, uint64(m.hier.DirtyBlocks()))
	}
	flushDone, n := m.hier.FlushDirty(m.now, m.flushIssueCost)
	m.flushedBlocks += uint64(n)
	m.now = flushDone
	if m.recOn {
		m.rec.EndSpan(obs.TrackCPU, uint64(flushDone))
		m.rec.Event(uint64(start), obs.EvCacheFlush, uint64(n), uint64(flushDone-start))
	}
	if m.PreCheckpoint != nil {
		m.PreCheckpoint(m)
	}
	resume := m.ctrl.BeginCheckpoint(m.now, m.composeState())
	m.ckptCalls++
	m.ckptCallStall += resume - start
	m.now = resume
	if m.PostCheckpoint != nil {
		m.PostCheckpoint(m)
	}
}

// Drain waits for any in-flight checkpoint to commit. The foreground wait
// is attributed by the controller (a TrackCPU device_drain span) so this
// wrapper stays small enough to inline on the detached path.
func (m *Machine) Drain() {
	m.now = m.ctrl.DrainCheckpoint(m.now)
}

// Compute executes n compute instructions on the core.
func (m *Machine) Compute(n uint64) {
	if n == 0 {
		return
	}
	m.now = m.core.ExecuteCompute(m.now, n)
	m.poll()
}

// Read performs a load of len(buf) bytes at addr, split into block-sized
// cache accesses.
//
//thynvm:hotpath
func (m *Machine) Read(addr uint64, buf []byte) {
	//thynvm:allow-alloc poll reaches checkpoint composition, the sanctioned epoch-boundary slow path
	m.poll()
	for len(buf) > 0 {
		n := int(mem.BlockSize - addr%mem.BlockSize)
		if n > len(buf) {
			n = len(buf)
		}
		done := m.hier.Read(m.now, addr, buf[:n])
		m.now = m.core.RetireMemOp(m.now, done)
		addr += uint64(n)
		buf = buf[n:]
	}
}

// Write performs a store of data at addr, split into block-sized cache
// accesses.
//
//thynvm:hotpath
func (m *Machine) Write(addr uint64, data []byte) {
	//thynvm:allow-alloc poll reaches checkpoint composition, the sanctioned epoch-boundary slow path
	m.poll()
	for len(data) > 0 {
		n := int(mem.BlockSize - addr%mem.BlockSize)
		if n > len(data) {
			n = len(data)
		}
		ack := m.hier.Write(m.now, addr, data[:n])
		m.now = m.core.RetireMemOp(m.now, ack)
		addr += uint64(n)
		data = data[n:]
	}
}

// Peek reads the software-visible memory image without advancing time,
// including data still dirty in the caches (what a program would load).
// On a machine without caches a whole-block span is one controller peek.
//
//thynvm:hotpath
func (m *Machine) Peek(addr uint64, buf []byte) {
	if !m.cached && addr%mem.BlockSize == 0 && len(buf)%mem.BlockSize == 0 {
		m.ctrl.PeekBlock(addr, buf)
		return
	}
	block := &m.peekBlock
	for len(buf) > 0 {
		n := int(mem.BlockSize - addr%mem.BlockSize)
		if n > len(buf) {
			n = len(buf)
		}
		// Take the controller's software-visible block, then let a cached
		// copy, which is newer when a level holds one, replace it.
		// Neither call advances time or touches replacement state.
		base := mem.BlockAlign(addr)
		m.ctrl.PeekBlock(base, block[:])
		m.hier.PeekOverlay(base, block[:])
		copy(buf[:n], block[addr-base:])
		addr += uint64(n)
		buf = buf[n:]
	}
}

// CrashNow models a power failure at the current cycle: caches and all
// volatile controller state are lost.
func (m *Machine) CrashNow() mem.Cycle {
	at := m.now
	m.ctrl.Crash(at)
	m.hier.InvalidateAll()
	return at
}

// SetRecoverCrashPoints arms crash-during-recovery injection: the next
// len(cuts) Recover attempts are each interrupted by a power failure at the
// given cycle of their own recovery timeline (attempt-relative; every
// attempt restarts at cycle 0). Recover retries automatically after each
// interruption, and a single Recover call consumes the whole list: cuts
// left over when an attempt completes are dropped. A cut at or beyond an
// attempt's natural completion lets it finish normally; an ideal system's
// recovery takes no time, so it never restarts.
func (m *Machine) SetRecoverCrashPoints(cuts []mem.Cycle) {
	m.recoverCuts = append(m.recoverCuts[:0], cuts...)
}

// RecoveryRestarts returns how many Recover attempts were interrupted by an
// injected crash-during-recovery and retried.
func (m *Machine) RecoveryRestarts() uint64 { return m.recoverRestarts }

// Recover rebuilds the system after a crash: the controller restores the
// last committed memory image, and the core (plus registered program state)
// is restored from the checkpointed CPU state. hadCheckpoint is false when
// the crash predated any commit (cold restart: fresh core).
//
// If crash points were armed via SetRecoverCrashPoints, interrupted
// attempts are retried until one completes — recovery after a crash during
// recovery, the paper's idempotent-recovery requirement.
func (m *Machine) Recover() (hadCheckpoint bool, err error) {
	for {
		if len(m.recoverCuts) > 0 {
			m.ctrl.SetRecoverInterrupt(m.recoverCuts[0])
			m.recoverCuts = m.recoverCuts[1:]
		}
		had, rerr := m.recoverOnce()
		if rerr != nil && errors.Is(rerr, ctl.ErrRecoverInterrupted) {
			m.recoverRestarts++
			m.hier.InvalidateAll()
			continue
		}
		m.recoverCuts = m.recoverCuts[:0]
		return had, rerr
	}
}

func (m *Machine) recoverOnce() (hadCheckpoint bool, err error) {
	before := m.now
	state, lat, err := m.ctrl.Recover()
	m.now += lat
	if err != nil {
		return false, err
	}
	if m.recOn && lat > 0 {
		m.rec.BeginSpan(obs.TrackCPU, uint64(before), obs.SpanRecoveryReplay, obs.CauseRecoveryReplay, 0)
		m.rec.EndSpan(obs.TrackCPU, uint64(m.now))
	}
	m.core = &cpu.Core{}
	if state == nil {
		if m.restoreProg != nil {
			if err := m.restoreProg(nil); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	if err := m.restoreState(state); err != nil {
		return true, err
	}
	return true, nil
}

// LastRecovery returns the controller's classification of the most recent
// Recover call: clean, fallback to an older generation, or unrecoverable.
func (m *Machine) LastRecovery() ctl.RecoveryReport { return m.ctrl.LastRecovery() }

// CheckpointStall returns the execution time lost to checkpoint calls
// (cache flush + controller begin) observed by this harness.
func (m *Machine) CheckpointStall() mem.Cycle { return m.ckptCallStall }

// CheckpointCalls returns how many checkpoints this machine initiated.
func (m *Machine) CheckpointCalls() uint64 { return m.ckptCalls }

// FlushedBlocks returns the dirty cache blocks written during checkpoints.
func (m *Machine) FlushedBlocks() uint64 { return m.flushedBlocks }

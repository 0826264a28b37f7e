package baseline

import (
	"fmt"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// Ideal is a single-device main memory that is *assumed* to provide crash
// consistency at no cost — the paper's "Ideal DRAM" and "Ideal NVM" upper
// bounds (§5.1). Checkpointing is free: a crash magically preserves the
// latest memory image and the CPU state registered at the last checkpoint
// boundary. It exists to measure the overhead of the real schemes against.
//
// Its durable device (Dev) is the single main memory.
// Every fault hook lands there, but Crash persists everything in flight, so
// at-crash tears never fire — consistent with the "crash consistency at no
// cost" premise — while injected media faults still land and are caught by
// the recovery-time scrub when integrity is on. Recovery takes 0 cycles, so
// an armed recovery cut always lies beyond its completion.
type Ideal struct {
	ctl.Durable

	cfg      Config
	name     string
	epochSt  mem.Cycle
	cpuState []byte
	stats    ctl.Stats
	tele     ctl.EpochSampler
	anyWork  bool
}

var _ ctl.Controller = (*Ideal)(nil)

// NewIdealDRAM builds the DRAM-only ideal system.
func NewIdealDRAM(cfg Config) (*Ideal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.DRAM
	spec.Volatile = false // idealized: contents survive by assumption
	store, err := mem.NewBackedStorage(cfg.NVMBacking)
	if err != nil {
		return nil, err
	}
	if cfg.Integrity {
		store.EnableIntegrity()
	}
	return &Ideal{Durable: ctl.Durable{Dev: mem.NewDeviceStorage(spec, store)}, cfg: cfg, name: "Ideal DRAM"}, nil
}

// NewIdealNVM builds the NVM-only ideal system.
func NewIdealNVM(cfg Config) (*Ideal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	store, err := mem.NewBackedStorage(cfg.NVMBacking)
	if err != nil {
		return nil, err
	}
	if cfg.Integrity {
		store.EnableIntegrity()
	}
	return &Ideal{Durable: ctl.Durable{Dev: mem.NewDeviceStorage(cfg.NVM, store)}, cfg: cfg, name: "Ideal NVM"}, nil
}

// Name identifies the system in reports.
func (s *Ideal) Name() string { return s.name }

// LoadHome pre-loads initial data, bypassing timing.
func (s *Ideal) LoadHome(addr uint64, data []byte) { s.Dev.Poke(addr, data) }

// ReadBlock implements ctl.Controller.
func (s *Ideal) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	checkAccess(s.cfg.PhysBytes, addr, len(buf))
	done := s.Dev.Read(now, addr, buf)
	if s.tele.On() {
		s.tele.Rec().Latency(obs.HistBlockRead, uint64(done-now))
	}
	return done
}

// WriteBlock implements ctl.Controller.
func (s *Ideal) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	checkAccess(s.cfg.PhysBytes, addr, len(data))
	s.anyWork = true
	ack := s.Dev.Write(now, addr, data, mem.SrcCPU)
	s.tele.StallSpan(now, ack, obs.CauseQueueFull)
	if s.tele.On() {
		s.tele.Rec().Latency(obs.HistBlockWrite, uint64(ack-now))
	}
	return ack
}

// MetadataKind implements ctl.Controller: the ideal systems keep no
// durable metadata.
func (s *Ideal) MetadataKind(addr uint64) ctl.MetadataKind { return ctl.MetaNone }

// CommitAt implements ctl.Controller: commits are instantaneous.
func (s *Ideal) CommitAt() (bool, mem.Cycle) { return false, 0 }

// CheckpointDue implements ctl.Controller: never. The paper's ideal
// systems provide crash consistency at NO cost, so they must not trigger
// epoch work (in particular not the harness's cache flush). Explicit
// BeginCheckpoint calls still register CPU state for recovery semantics.
func (s *Ideal) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	return false
}

// BeginCheckpoint implements ctl.Controller: free.
func (s *Ideal) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	epoch := s.stats.Epochs
	epochStart := s.epochSt
	s.cpuState = append([]byte(nil), cpuState...)
	s.epochSt = now
	s.anyWork = false
	s.stats.Epochs++
	s.stats.Commits++
	if s.tele.On() {
		rec := s.tele.Rec()
		rec.Event(uint64(now), obs.EvEpochEnd, epoch, 0)
		rec.Event(uint64(now), obs.EvCkptBegin, epoch, 0)
		rec.Event(uint64(now), obs.EvCkptComplete, epoch, 0)
		rec.Latency(obs.HistCkptDrain, 0)
		rec.Event(uint64(now), obs.EvEpochBegin, epoch+1, 0)
		// Checkpointing is free: the epoch root just rotates in place.
		rec.EndSpan(obs.TrackCPU, uint64(now))
		rec.BeginSpan(obs.TrackCPU, uint64(now), obs.SpanEpoch, obs.CauseExec, epoch+1)
		s.tele.Sample(ctl.EpochMeta{Epoch: epoch, Start: epochStart, End: now}, s.Stats())
	}
	return now
}

// DrainCheckpoint implements ctl.Controller: nothing drains.
func (s *Ideal) DrainCheckpoint(now mem.Cycle) mem.Cycle { return now }

// Crash implements ctl.Controller. The ideal assumption: even in-flight
// writes persist (consistency at no cost).
func (s *Ideal) Crash(at mem.Cycle) {
	s.Dev.Crash(mem.MaxCycle)
}

// Recover implements ctl.Controller: instantaneous, returns the CPU state
// registered at the last checkpoint boundary. With integrity on, the whole
// software-visible image is scrubbed first — the ideal assumption does not
// extend to media faults, so damage is refused, never silently returned.
func (s *Ideal) Recover() ([]byte, mem.Cycle, error) {
	s.Cut, s.Last = 0, ctl.RecoveryReport{Class: ctl.RecoveredClean}
	if s.cfg.Integrity {
		if fails := s.Dev.Storage().VerifyRange(0, s.cfg.PhysBytes); len(fails) > 0 {
			s.Last = ctl.RecoveryReport{Class: ctl.Unrecoverable, ChecksumFailures: len(fails)}
			return nil, 0, fmt.Errorf("baseline: %s: %d corrupt block(s) in the memory image: %w",
				s.name, len(fails), ctl.ErrUnrecoverable)
		}
	}
	return s.cpuState, 0, nil
}

// PeekBlock implements ctl.Controller: the device reads the whole span at
// once, replaying the writes still posted over it in posting order.
func (s *Ideal) PeekBlock(addr uint64, buf []byte) { s.Dev.Peek(addr, buf) }

// Stats implements ctl.Controller.
func (s *Ideal) Stats() ctl.Stats {
	st := s.stats
	if s.Dev.Spec().Name == "DRAM" {
		st.DRAM = s.Dev.Stats()
	} else {
		st.NVM = s.Dev.Stats()
	}
	return st
}

// ResetStats implements ctl.Controller.
func (s *Ideal) ResetStats() {
	s.stats = ctl.Stats{}
	s.Dev.ResetStats()
	s.tele.Rebase(s.Stats())
}

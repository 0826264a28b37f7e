package baseline

import (
	"fmt"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
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
	cpuState []byte
}

var _ ctl.Controller = (*Ideal)(nil)

// NewIdealDRAM builds the DRAM-only ideal system.
func NewIdealDRAM(cfg Config) (*Ideal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := mem.DRAMSpec()
	spec.Volatile = false // idealized: contents survive by assumption
	return newIdeal(cfg, spec, "Ideal DRAM"), nil
}

// NewIdealNVM builds the NVM-only ideal system.
func NewIdealNVM(cfg Config) (*Ideal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newIdeal(cfg, mem.NVMSpec(), "Ideal NVM"), nil
}

func newIdeal(cfg Config, spec mem.DeviceSpec, name string) *Ideal {
	dev := mem.NewDevice(spec)
	if cfg.Integrity {
		dev.Storage().EnableIntegrity()
	}
	return &Ideal{Durable: ctl.Durable{Dev: dev}, cfg: cfg, name: name}
}

// ReadBlock implements ctl.Controller.
func (s *Ideal) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	ctl.CheckAccess(s.cfg.PhysBytes, addr, len(buf))
	return s.BlockRead(now, s.Dev.Read(now, addr, buf))
}

// WriteBlock implements ctl.Controller.
func (s *Ideal) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	ctl.CheckAccess(s.cfg.PhysBytes, addr, len(data))
	return s.QueuedWrite(now, s.Dev.Write(now, addr, data, mem.SrcCPU))
}

// MetadataKind implements ctl.Controller: the ideal systems keep no
// durable metadata.
func (s *Ideal) MetadataKind(addr uint64) ctl.MetadataKind { return ctl.MetaNone }

// CheckpointDue implements ctl.Controller: never. The paper's ideal
// systems provide crash consistency at NO cost, so they must not trigger
// epoch work (in particular not the harness's cache flush). Explicit
// BeginCheckpoint calls still register CPU state for recovery semantics.
func (s *Ideal) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	return false
}

// BeginCheckpoint implements ctl.Controller: free. The checkpoint commits
// at the instant it begins, and the epoch root just rotates in place.
func (s *Ideal) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	s.cpuState = append([]byte(nil), cpuState...)
	s.EndEpoch(now, s.Counts.Epochs, false)
	s.Committed(now)
	s.NextEpoch(now, ctl.EpochMeta{})
	return now
}

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

package sim

import (
	"math/rand"
	"testing"

	"thynvm/internal/mem"
	"thynvm/internal/verify"
)

// Crash during recovery: recovery must be idempotent — a power failure
// partway through consolidation, followed by a fresh recovery, still lands
// on the committed checkpoint image.
func TestRecoverSurvivesCrashDuringRecovery(t *testing.T) {
	for name, ctrl := range allSystems(t) {
		m := NewMachine(ctrl, true)
		o := verify.New()
		rng := rand.New(rand.NewSource(7))
		data := make([]byte, mem.BlockSize)
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(1024)) * mem.BlockSize
			for j := range data {
				data[j] = byte(i ^ j)
			}
			m.Write(addr, data)
			o.RecordWrite(addr, len(data))
		}
		m.PreCheckpoint = func(mm *Machine) {
			o.Capture(mm.Controller(), "boundary", mm.Now())
		}
		m.Checkpoint()
		m.Drain()
		m.CrashNow()

		// Three consecutive recovery attempts die at increasing depths of
		// their own timeline; the fourth (or an attempt whose cut lies past
		// natural completion) finishes.
		m.SetRecoverCrashPoints([]mem.Cycle{1, 50, 5000})
		had, err := m.Recover()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !had {
			t.Fatalf("%s: committed checkpoint lost across recovery restarts", name)
		}
		// An ideal system's recovery takes 0 cycles, so every cut lies
		// beyond its completion; every other system restarts.
		ideal := name == "IdealDRAM" || name == "IdealNVM"
		if n := m.RecoveryRestarts(); ideal != (n == 0) {
			t.Errorf("%s: %d recovery restarts", name, n)
		}
		if _, _, ok := o.Match(m.Controller()); !ok {
			t.Errorf("%s: image after interrupted recovery matches no snapshot: %v",
				name, o.Diff(m.Controller(), 0))
		}
	}
}

// A cut past the natural completion of recovery must not perturb it, and
// the cuts that completed recovery left unused must not arm a later one.
func TestRecoverCutBeyondCompletionIsNoop(t *testing.T) {
	for name, ctrl := range allSystems(t) {
		m := NewMachine(ctrl, true)
		data := make([]byte, mem.BlockSize)
		for i := 0; i < 50; i++ {
			m.Write(uint64(i)*mem.BlockSize, data)
		}
		m.Checkpoint()
		m.Drain()
		m.CrashNow()
		m.SetRecoverCrashPoints([]mem.Cycle{mem.MaxCycle, 1})
		if _, err := m.Recover(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.RecoveryRestarts() != 0 {
			t.Errorf("%s: cut beyond completion still restarted (%d)", name, m.RecoveryRestarts())
		}
		m.CrashNow()
		if _, err := m.Recover(); err != nil {
			t.Fatalf("%s: second recovery: %v", name, err)
		}
		if m.RecoveryRestarts() != 0 {
			t.Errorf("%s: a cut left over from the first recovery restarted the second (%d)", name, m.RecoveryRestarts())
		}
	}
}

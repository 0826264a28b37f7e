package baseline

import (
	"bytes"
	"math/rand"
	"testing"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.PhysBytes = 1 << 20
	cfg.EpochLen = mem.FromNs(50_000)
	cfg.JournalEntries = 256
	cfg.DRAMPages = 16
	return cfg
}

func blockOf(v byte) []byte {
	b := make([]byte, mem.BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

type loadable interface {
	ctl.Controller
	LoadHome(addr uint64, data []byte)
}

// systems returns fresh instances of every baseline under test.
func systems(t *testing.T) map[string]loadable {
	t.Helper()
	cfg := testConfig()
	id, err := NewIdealDRAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIdealNVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShadow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]loadable{"idealDRAM": id, "idealNVM": in, "journal": j, "shadow": sh}
}

func TestBaselineWriteReadRoundTrip(t *testing.T) {
	for name, s := range systems(t) {
		now := s.WriteBlock(0, 128, blockOf(42))
		buf := make([]byte, mem.BlockSize)
		s.ReadBlock(now, 128, buf)
		if buf[0] != 42 {
			t.Errorf("%s: read %d, want 42", name, buf[0])
		}
		peek := make([]byte, mem.BlockSize)
		s.PeekBlock(128, peek)
		if !bytes.Equal(peek, buf) {
			t.Errorf("%s: Peek disagrees with Read", name)
		}
	}
}

func TestBaselineHomeFallback(t *testing.T) {
	for name, s := range systems(t) {
		s.LoadHome(4096, blockOf(9))
		buf := make([]byte, mem.BlockSize)
		s.ReadBlock(0, 4096, buf)
		if buf[0] != 9 {
			t.Errorf("%s: home read %d, want 9", name, buf[0])
		}
	}
}

func TestBaselineCheckpointRecover(t *testing.T) {
	for name, s := range systems(t) {
		now := s.WriteBlock(0, 0, blockOf(7))
		now = s.BeginCheckpoint(now, []byte("cpu-7"))
		now = s.DrainCheckpoint(now)
		s.Crash(now + 1_000_000)
		cpu, _, err := s.Recover()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(cpu) != "cpu-7" {
			t.Errorf("%s: cpu state %q, want cpu-7", name, cpu)
		}
		buf := make([]byte, mem.BlockSize)
		s.ReadBlock(0, 0, buf)
		if buf[0] != 7 {
			t.Errorf("%s: recovered %d, want 7", name, buf[0])
		}
	}
}

func TestJournalShadowCrashBeforeCommitLosesEpoch(t *testing.T) {
	cfg := testConfig()
	j, _ := NewJournal(cfg)
	sh, _ := NewShadow(cfg)
	for name, s := range map[string]loadable{"journal": j, "shadow": sh} {
		s.LoadHome(0, blockOf(1))
		now := s.WriteBlock(0, 0, blockOf(2))
		s.Crash(now + 1_000_000) // no checkpoint ever
		cpu, _, err := s.Recover()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cpu != nil {
			t.Errorf("%s: unexpected CPU state %q", name, cpu)
		}
		buf := make([]byte, mem.BlockSize)
		s.ReadBlock(0, 0, buf)
		if buf[0] != 1 {
			t.Errorf("%s: read %d after crash, want pre-crash home value 1", name, buf[0])
		}
	}
}

func TestIdealHasNoCheckpointCost(t *testing.T) {
	cfg := testConfig()
	s, _ := NewIdealDRAM(cfg)
	now := s.WriteBlock(0, 0, blockOf(1))
	resume := s.BeginCheckpoint(now, nil)
	if resume != now {
		t.Errorf("ideal checkpoint cost %d cycles, want 0", resume-now)
	}
	if st := s.Stats(); st.CkptStall != 0 || st.CkptBusy != 0 {
		t.Errorf("ideal accrued checkpoint time: %+v", st)
	}
}

func TestJournalIsStopTheWorld(t *testing.T) {
	cfg := testConfig()
	j, _ := NewJournal(cfg)
	now := mem.Cycle(0)
	for i := 0; i < 32; i++ {
		now = j.WriteBlock(now, uint64(i)*mem.BlockSize, blockOf(byte(i)))
	}
	resume := j.BeginCheckpoint(now, nil)
	if resume == now {
		t.Fatal("journal checkpoint should stall")
	}
	if st := j.Stats(); st.CkptBusy == 0 {
		t.Error("journal did not account checkpoint time")
	}
}

func TestJournalOverflowRequestsCheckpoint(t *testing.T) {
	cfg := testConfig()
	cfg.JournalEntries = 8
	j, _ := NewJournal(cfg)
	now := mem.Cycle(0)
	for i := 0; i < 8; i++ {
		now = j.WriteBlock(now, uint64(i)*mem.BlockSize, blockOf(1))
	}
	if !j.CheckpointDue(now, false) {
		t.Error("full journal table should request a checkpoint")
	}
}

func TestShadowCoWCopiesWholePage(t *testing.T) {
	cfg := testConfig()
	sh, _ := NewShadow(cfg)
	sh.LoadHome(0, blockOf(5))
	sh.LoadHome(64, blockOf(6))
	// Write one block; CoW must have brought the whole page, so reading a
	// different block of the same page hits DRAM with the home data.
	now := sh.WriteBlock(0, 0, blockOf(9))
	buf := make([]byte, mem.BlockSize)
	sh.ReadBlock(now, 64, buf)
	if buf[0] != 6 {
		t.Errorf("CoW page read %d, want 6", buf[0])
	}
	st := sh.Stats()
	if st.NVM.BytesRead < mem.PageSize {
		t.Error("CoW did not read the full page from NVM")
	}
}

func TestShadowDRAMPressureFlushes(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMPages = 4
	sh, _ := NewShadow(cfg)
	now := mem.Cycle(0)
	// Dirty more pages than the buffer holds: forced flushes must keep it
	// working and data must remain readable.
	for i := 0; i < 16; i++ {
		now = sh.WriteBlock(now, uint64(i)*mem.PageSize, blockOf(byte(i+1)))
	}
	buf := make([]byte, mem.BlockSize)
	for i := 0; i < 16; i++ {
		sh.ReadBlock(now, uint64(i)*mem.PageSize, buf)
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d reads %d, want %d", i, buf[0], i+1)
		}
	}
	if sh.Stats().Commits == 0 {
		t.Error("DRAM pressure never forced a flush")
	}
}

// TestShadowEvictsLowestCleanPage: a full DRAM buffer gives up the slot of
// the clean buffered page with the lowest index, whatever order the pages
// were buffered in.
func TestShadowEvictsLowestCleanPage(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMPages = 3
	sh, _ := NewShadow(cfg)
	now := mem.Cycle(0)
	for _, p := range []uint64{2, 0, 1} {
		now = sh.WriteBlock(now, p*mem.PageSize, blockOf(byte(p+1)))
	}
	now = sh.BeginCheckpoint(now, nil) // all three clean, still buffered
	now = sh.WriteBlock(now, 3*mem.PageSize, blockOf(4))
	buf := make([]byte, mem.BlockSize)
	for p := uint64(0); p < 3; p++ {
		before := sh.Stats().DRAM.Reads
		sh.ReadBlock(now, p*mem.PageSize, buf)
		if buffered := sh.Stats().DRAM.Reads > before; buffered != (p != 0) {
			t.Errorf("page %d buffered = %v after one eviction, want only page 0 evicted", p, buffered)
		}
	}
}

// TestJournalCrashConsistencyProperty: journaling commits only at epoch
// boundaries, so the recovered state must exactly match the snapshot of the
// newest committed epoch.
func TestJournalCrashConsistencyProperty(t *testing.T) {
	cfg := testConfig()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type ev struct {
			ckpt bool
			addr uint64
			val  byte
		}
		var events []ev
		for i := 0; i < 250; i++ {
			if rng.Intn(30) == 0 {
				events = append(events, ev{ckpt: true})
			} else {
				events = append(events, ev{addr: uint64(rng.Intn(256)) * mem.BlockSize, val: byte(rng.Intn(256))})
			}
		}
		run := func(j *Journal, stopAt mem.Cycle) (recs []struct {
			commit mem.Cycle
			snap   map[uint64]byte
		}, lastNow mem.Cycle) {
			now := mem.Cycle(0)
			state := map[uint64]byte{}
			for _, e := range events {
				if now > stopAt {
					break
				}
				if e.ckpt {
					snap := make(map[uint64]byte, len(state))
					for k, v := range state {
						snap[k] = v
					}
					now = j.BeginCheckpoint(now, nil)
					recs = append(recs, struct {
						commit mem.Cycle
						snap   map[uint64]byte
					}{now, snap})
					continue
				}
				state[e.addr] = e.val
				now = j.WriteBlock(now, e.addr, blockOf(e.val))
			}
			return recs, now
		}
		ref, _ := NewJournal(cfg)
		recs, endAt := run(ref, mem.MaxCycle)
		for trial := 0; trial < 12; trial++ {
			crashAt := mem.Cycle(rng.Int63n(int64(endAt) + 1))
			replay, _ := NewJournal(cfg)
			_, lastNow := run(replay, crashAt)
			if lastNow > crashAt {
				crashAt = lastNow
			}
			replay.Crash(crashAt)
			if _, _, err := replay.Recover(); err != nil {
				t.Fatal(err)
			}
			var want map[uint64]byte
			for i := range recs {
				if recs[i].commit <= crashAt {
					want = recs[i].snap
				}
			}
			buf := make([]byte, mem.BlockSize)
			for addr := uint64(0); addr < 256*mem.BlockSize; addr += mem.BlockSize {
				replay.PeekBlock(addr, buf)
				if buf[0] != want[addr] {
					t.Fatalf("seed %d crash@%d: addr %#x = %d, want %d", seed, crashAt, addr, buf[0], want[addr])
				}
			}
		}
	}
}

// TestShadowCrashConsistencyProperty: shadow paging may also commit on DRAM
// pressure mid-epoch, so the recovered state must match the state as of
// SOME operation prefix, at least as new as the last epoch commit.
func TestShadowCrashConsistencyProperty(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMPages = 4
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type ev struct {
			ckpt bool
			addr uint64
			val  byte
		}
		var events []ev
		for i := 0; i < 200; i++ {
			if rng.Intn(30) == 0 {
				events = append(events, ev{ckpt: true})
			} else {
				events = append(events, ev{addr: uint64(rng.Intn(512)) * mem.BlockSize, val: byte(1 + rng.Intn(255))})
			}
		}
		// prefixes[i] = memory state after first i ops.
		var prefixes []map[uint64]byte
		var commitCycles []mem.Cycle
		var commitPrefix []int
		run := func(sh *Shadow, stopAt mem.Cycle, record bool) mem.Cycle {
			now := mem.Cycle(0)
			state := map[uint64]byte{}
			for _, e := range events {
				if now > stopAt {
					break
				}
				if e.ckpt {
					now = sh.BeginCheckpoint(now, nil)
					if record {
						commitCycles = append(commitCycles, now)
						commitPrefix = append(commitPrefix, len(prefixes)-1)
					}
					continue
				}
				state[e.addr] = e.val
				now = sh.WriteBlock(now, e.addr, blockOf(e.val))
				if record {
					snap := make(map[uint64]byte, len(state))
					for k, v := range state {
						snap[k] = v
					}
					prefixes = append(prefixes, snap)
				}
			}
			return now
		}
		ref, _ := NewShadow(cfg)
		prefixes = append(prefixes, map[uint64]byte{}) // empty prefix
		endAt := run(ref, mem.MaxCycle, true)
		for trial := 0; trial < 10; trial++ {
			crashAt := mem.Cycle(rng.Int63n(int64(endAt) + 1))
			replay, _ := NewShadow(cfg)
			lastNow := run(replay, crashAt, false)
			if lastNow > crashAt {
				crashAt = lastNow
			}
			replay.Crash(crashAt)
			if _, _, err := replay.Recover(); err != nil {
				t.Fatal(err)
			}
			recovered := map[uint64]byte{}
			buf := make([]byte, mem.BlockSize)
			for addr := uint64(0); addr < 512*mem.BlockSize; addr += mem.BlockSize {
				replay.PeekBlock(addr, buf)
				if buf[0] != 0 {
					recovered[addr] = buf[0]
				}
			}
			// Must match some prefix...
			match := -1
			for i, p := range prefixes {
				if mapsEqual(p, recovered) {
					match = i
					break
				}
			}
			if match < 0 {
				t.Fatalf("seed %d crash@%d: recovered state matches no operation prefix", seed, crashAt)
			}
			// ...and be at least as new as the newest epoch commit <= crash.
			minPrefix := -1
			for i, c := range commitCycles {
				if c <= crashAt {
					minPrefix = commitPrefix[i]
				}
			}
			if match < minPrefix {
				t.Fatalf("seed %d crash@%d: recovered prefix %d older than committed prefix %d",
					seed, crashAt, match, minPrefix)
			}
		}
	}
}

func mapsEqual(a, b map[uint64]byte) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

func TestBaselineConfigValidate(t *testing.T) {
	cfg := testConfig()
	cfg.PhysBytes = 123
	if cfg.Validate() == nil {
		t.Error("unaligned PhysBytes accepted")
	}
	cfg = testConfig()
	cfg.JournalEntries = 0
	if cfg.Validate() == nil {
		t.Error("zero JournalEntries accepted")
	}
	if testConfig().Validate() != nil {
		t.Error("valid config rejected")
	}
}

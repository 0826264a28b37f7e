package mem

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

// smallNVM returns an NVM device with a tiny write queue to exercise stalls.
func smallNVM(queueCap int) *Device {
	spec := NVMSpec()
	spec.WriteQueueCap = queueCap
	return NewDevice(spec)
}

func TestDeviceReadRowHitMissTiming(t *testing.T) {
	d := NewDevice(NVMSpec())
	buf := make([]byte, BlockSize)
	// First access: clean row miss.
	done := d.Read(0, 0, buf)
	if done != NVMSpec().RowMissClean {
		t.Errorf("first read done at %d, want clean miss %d", done, NVMSpec().RowMissClean)
	}
	// Same row, after the bank frees: row hit.
	done2 := d.Read(done, BlockSize, buf)
	if done2 != done+NVMSpec().RowHit {
		t.Errorf("row hit read done at %d, want %d", done2, done+NVMSpec().RowHit)
	}
}

func TestDeviceDirtyRowMissPenalty(t *testing.T) {
	spec := NVMSpec()
	d := NewDevice(spec)
	data := make([]byte, BlockSize)
	// Write opens write-row 0 of bank 0 and dirties it.
	d.Write(0, 0, data, SrcCPU)
	now := d.Flush(0)
	// The write stream moving to a different row on the same bank pays the
	// dirty-row-miss penalty (the modified row must be written back).
	otherRow := spec.RowBytes * uint64(spec.Banks) // same bank, next row
	_, done := d.WriteAt(now, now, otherRow, data, SrcCPU)
	if done != now+spec.RowMissDirty {
		t.Errorf("dirty write miss done at %d, want %d", done, now+spec.RowMissDirty)
	}
	// Reads are served from the separately tracked read row and pay only a
	// clean miss (the controller drains write bursts before read bursts).
	buf := make([]byte, BlockSize)
	now = d.Flush(done)
	rdone := d.Read(now, 2*otherRow, buf)
	if rdone != now+spec.RowMissClean {
		t.Errorf("read miss done at %d, want clean %d", rdone, now+spec.RowMissClean)
	}
}

func TestDeviceBankParallelism(t *testing.T) {
	spec := NVMSpec()
	d := NewDevice(spec)
	buf := make([]byte, BlockSize)
	// Two reads to different banks issued at the same cycle both complete
	// after a single miss latency (they do not serialize).
	d1 := d.Read(0, 0, buf)
	d2 := d.Read(0, spec.RowBytes, buf) // next row -> next bank
	if d1 != spec.RowMissClean || d2 != spec.RowMissClean {
		t.Errorf("parallel bank reads done at %d,%d want both %d", d1, d2, spec.RowMissClean)
	}
	// Same bank serializes.
	d3 := d.Read(0, BlockSize, buf) // bank 0 again
	if d3 != d1+spec.RowHit {
		t.Errorf("same-bank read done at %d, want %d", d3, d1+spec.RowHit)
	}
}

func TestDeviceWriteIsPosted(t *testing.T) {
	d := smallNVM(4)
	data := make([]byte, BlockSize)
	ack := d.Write(0, 0, data, SrcCPU)
	if ack != 0 {
		t.Errorf("posted write acked at %d, want 0", ack)
	}
}

func TestDeviceWriteQueueFullStalls(t *testing.T) {
	d := smallNVM(1)
	data := make([]byte, BlockSize)
	if ack := d.Write(0, 0, data, SrcCPU); ack != 0 {
		t.Fatalf("first write should not stall, acked %d", ack)
	}
	// Queue is full: the second write must wait for the first to drain.
	ack := d.Write(0, BlockSize, data, SrcCPU)
	if ack == 0 {
		t.Error("second write should have stalled on the full queue")
	}
}

func TestDeviceReadForwardsPendingWrite(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := bytes.Repeat([]byte{0xab}, BlockSize)
	d.Write(0, 0, data, SrcCPU)
	buf := make([]byte, BlockSize)
	d.Read(0, 0, buf) // write has not completed yet; must forward
	if !bytes.Equal(buf, data) {
		t.Error("read did not forward data from the posted write queue")
	}
}

func TestDeviceNewestWriteWinsOnForward(t *testing.T) {
	d := NewDevice(NVMSpec())
	a := bytes.Repeat([]byte{1}, BlockSize)
	b := bytes.Repeat([]byte{2}, BlockSize)
	d.Write(0, 0, a, SrcCPU)
	d.Write(0, 0, b, SrcCPU)
	buf := make([]byte, BlockSize)
	d.Read(0, 0, buf)
	if buf[0] != 2 {
		t.Errorf("forwarded %d, want newest write 2", buf[0])
	}
}

func TestDeviceFlushMakesDurable(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := bytes.Repeat([]byte{0x5a}, BlockSize)
	d.Write(0, 128, data, SrcCheckpoint)
	done := d.Flush(0)
	if done == 0 {
		t.Error("flush of a pending write should take time")
	}
	if n := d.PendingWrites(done); n != 0 {
		t.Errorf("%d writes still pending after flush", n)
	}
	// A crash after the flush point must retain the data.
	d.Crash(done)
	buf := make([]byte, BlockSize)
	d.Peek(128, buf)
	if !bytes.Equal(buf, data) {
		t.Error("flushed data lost on crash")
	}
}

func TestDeviceCrashDropsInFlightWrites(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := bytes.Repeat([]byte{0x77}, BlockSize)
	d.Write(0, 0, data, SrcCPU)
	d.Crash(0) // crash at the instant of posting: write not durable
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("in-flight write survived crash")
		}
	}
}

func TestDeviceCrashKeepsCompletedWrites(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := bytes.Repeat([]byte{0x11}, BlockSize)
	d.Write(0, 0, data, SrcCPU)
	durable := d.Flush(0)
	d.Crash(durable)
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	if !bytes.Equal(buf, data) {
		t.Error("completed write lost on crash")
	}
}

func TestVolatileDeviceLosesAllOnCrash(t *testing.T) {
	d := NewDevice(DRAMSpec())
	data := bytes.Repeat([]byte{0x3c}, BlockSize)
	d.Write(0, 0, data, SrcCPU)
	d.Flush(0)
	d.Crash(MaxCycle)
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("volatile device retained contents across crash")
		}
	}
}

// TestVolatileCrashAppliesNothing: a volatile device that crashes with
// posted writes, some durable by the crash instant and some in flight,
// writes none of them into the store it loses: the store is empty
// afterwards, the crash hook is still offered each in-flight write, and a
// refill reuses the store's nodes and chunks, allocating nothing.
func TestVolatileCrashAppliesNothing(t *testing.T) {
	d := NewDevice(DRAMSpec())
	data := bytes.Repeat([]byte{0x3c}, BlockSize)
	var durable, offered int
	d.SetCrashFault(func(uint64, []byte) []byte {
		offered++
		return data // a non-volatile device would persist this
	})
	// Sixteen pages settle into the store, then sixteen more are posted
	// and the crash lands between their first and last completions.
	cycle := func() {
		for i := uint64(0); i < 16; i++ {
			d.Write(0, i*PageSize, data, SrcCPU)
		}
		now := d.Flush(0)
		var dones [16]Cycle
		for i := range dones {
			_, dones[i] = d.WriteAt(now, now, uint64(16+i)*PageSize, data, SrcCPU)
		}
		at := (slices.Min(dones[:]) + slices.Max(dones[:])) / 2
		durable, offered = 0, 0
		for _, done := range dones {
			if done <= at {
				durable++
			}
		}
		d.Crash(at)
	}
	cycle()
	if durable == 0 || offered == 0 || durable+offered != 16 {
		t.Fatalf("crash saw %d durable and %d in-flight writes, want both of 16", durable, offered)
	}
	if got := d.Storage().FootprintBytes(); got != 0 {
		t.Errorf("FootprintBytes after a volatile crash = %d, want 0", got)
	}
	buf := make([]byte, BlockSize)
	for i := uint64(0); i < 32; i++ {
		d.Peek(i*PageSize, buf)
		if !bytes.Equal(buf, make([]byte, BlockSize)) {
			t.Fatalf("page %d survived a volatile crash", i)
		}
	}
	if got := bytesPerRun(3, cycle); got != 0 {
		t.Errorf("refilling and crashing again allocated %d bytes, want 0", got)
	}
}

func TestDeviceStatsAccounting(t *testing.T) {
	d := NewDevice(NVMSpec())
	buf := make([]byte, 2*BlockSize)
	d.Read(0, 0, buf)
	d.Write(0, 0, buf, SrcCheckpoint)
	d.Write(0, 256, buf[:BlockSize], SrcMigration)
	st := d.Stats()
	if st.Reads != 1 || st.BytesRead != 2*BlockSize {
		t.Errorf("read stats = %+v", st)
	}
	if st.Writes != 2 || st.BytesWritten != 3*BlockSize {
		t.Errorf("write stats = %+v", st)
	}
	if st.BytesBySource[SrcCheckpoint] != 2*BlockSize || st.BytesBySource[SrcMigration] != BlockSize {
		t.Errorf("source breakdown = %v", st.BytesBySource)
	}
	d.ResetStats()
	if d.Stats().Reads != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDeviceDurableSnapshot(t *testing.T) {
	d := NewDevice(NVMSpec())
	a := bytes.Repeat([]byte{1}, BlockSize)
	d.Write(0, 0, a, SrcCPU)
	durable := d.Flush(0)
	b := bytes.Repeat([]byte{2}, BlockSize)
	d.Write(durable, 0, b, SrcCPU) // still in flight at `durable`
	snap := d.DurableSnapshot(durable)
	got := make([]byte, BlockSize)
	snap.Read(0, got)
	if got[0] != 1 {
		t.Errorf("durable snapshot shows %d, want 1 (in-flight write excluded)", got[0])
	}
	// Device itself must be unchanged (write still pending).
	d.Peek(0, got)
	if got[0] != 2 {
		t.Error("DurableSnapshot disturbed the device")
	}
}

func TestDevicePokeBypassesTiming(t *testing.T) {
	d := NewDevice(NVMSpec())
	d.Poke(64, []byte{9})
	buf := make([]byte, 1)
	d.Peek(64, buf)
	if buf[0] != 9 {
		t.Error("Poke/Peek round trip failed")
	}
	if d.Stats().Writes != 0 {
		t.Error("Poke should not count as traffic")
	}
}

// Property: a read always observes the newest preceding write to each byte,
// regardless of flush/crash-free interleaving.
func TestDeviceReadYourWritesQuick(t *testing.T) {
	type op struct {
		Addr uint16
		Val  byte
	}
	prop := func(ops []op) bool {
		d := NewDevice(NVMSpec())
		shadow := make(map[uint64]byte)
		now := Cycle(0)
		for _, o := range ops {
			addr := uint64(o.Addr)
			now = d.Write(now, addr, []byte{o.Val}, SrcCPU)
			shadow[addr] = o.Val
		}
		for addr, want := range shadow {
			buf := make([]byte, 1)
			now = d.Read(now, addr, buf)
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeviceZeroValueSpecDefaults(t *testing.T) {
	d := NewDevice(DeviceSpec{Name: "X", RowHit: 1, RowMissClean: 2, RowMissDirty: 2})
	if d.Spec().Banks != 1 || d.Spec().RowBytes == 0 || d.Spec().WriteQueueCap == 0 {
		t.Errorf("defaults not applied: %+v", d.Spec())
	}
}

func TestReadBackgroundDoesNotDelayDemandReads(t *testing.T) {
	spec := NVMSpec()
	d := NewDevice(spec)
	buf := make([]byte, BlockSize)
	// Saturate bank 0's background port with a long background read burst.
	for i := 0; i < 64; i++ {
		d.ReadBackground(0, uint64(i)*spec.RowBytes*uint64(spec.Banks), buf)
	}
	// A demand read to the same bank must still start immediately.
	done := d.Read(0, 0, buf)
	if done != spec.RowMissClean {
		t.Errorf("demand read done at %d, want %d (undelayed)", done, spec.RowMissClean)
	}
}

func TestReadBackgroundContendsWithWrites(t *testing.T) {
	spec := NVMSpec()
	d := NewDevice(spec)
	data := make([]byte, BlockSize)
	_, wdone := d.WriteAt(0, 0, 0, data, SrcCheckpoint)
	buf := make([]byte, BlockSize)
	// Background read on the same bank queues behind the write drain.
	done := d.ReadBackground(0, BlockSize, buf)
	if done <= wdone {
		t.Errorf("background read done at %d, want after write drain %d", done, wdone)
	}
}

func TestReadBackgroundReturnsContent(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := bytes.Repeat([]byte{0x42}, BlockSize)
	d.Write(0, 0, data, SrcCPU) // still pending: must forward
	buf := make([]byte, BlockSize)
	d.ReadBackground(0, 0, buf)
	if !bytes.Equal(buf, data) {
		t.Error("background read returned wrong content")
	}
}

func TestWriteAtSchedulesNotBeforeIssueAt(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := make([]byte, BlockSize)
	ack, done := d.WriteAt(0, 10_000, 0, data, SrcCheckpoint)
	if ack != 0 {
		t.Errorf("ack = %d, want 0 (posting is immediate)", ack)
	}
	if done < 10_000 {
		t.Errorf("done = %d, want >= issueAt 10000", done)
	}
	// A crash before the completion must drop it even though it was
	// posted at cycle 0.
	d.Crash(9_999)
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	if buf[0] != 0 {
		t.Error("future-scheduled write survived an earlier crash")
	}
}

func TestMaxPendingDone(t *testing.T) {
	d := NewDevice(NVMSpec())
	if got := d.MaxPendingDone(5); got != 5 {
		t.Errorf("empty queue MaxPendingDone = %d, want now", got)
	}
	data := make([]byte, BlockSize)
	_, done := d.WriteAt(0, 0, 0, data, SrcCPU)
	if got := d.MaxPendingDone(0); got != done {
		t.Errorf("MaxPendingDone = %d, want %d", got, done)
	}
}

// TestDeviceReadDoesNotAllocate: a device read keeps no reference to its
// buffer, so callers' stack buffers stay on the stack. Both read ports
// forward a posted write here.
func TestDeviceReadDoesNotAllocate(t *testing.T) {
	d := NewDevice(NVMSpec())
	d.Write(0, PageSize, bytes.Repeat([]byte{0x3c}, BlockSize), SrcCPU)
	n := testing.AllocsPerRun(100, func() {
		var page [PageSize]byte
		d.Read(0, 0, page[:])
		d.ReadBackground(0, PageSize, page[:])
		if page[0] != 0x3c {
			t.Fatal("read did not forward the posted write")
		}
	})
	if n != 0 {
		t.Errorf("Read+ReadBackground into a stack page allocate %.0f times, want 0", n)
	}
}

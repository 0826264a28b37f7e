package mem

import (
	"bytes"
	"testing"
)

func TestWriteFaultCorruptsStoredData(t *testing.T) {
	d := NewDevice(NVMSpec())
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = 0xAA
	}
	var fired int
	d.SetWriteFault(func(addr uint64, cp []byte, src WriteSource) []byte {
		fired++
		cp[0] ^= 0x01 // in-place bit flip
		return cp
	})
	now := d.Write(0, 0, data, SrcCPU)
	d.Flush(now)
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	if fired != 1 {
		t.Fatalf("write fault fired %d times, want 1", fired)
	}
	if buf[0] != 0xAB {
		t.Errorf("stored byte0 = %#x, want corrupted 0xAB", buf[0])
	}
	if !bytes.Equal(buf[1:], data[1:]) {
		t.Error("fault damaged bytes it did not target")
	}
	// The caller's slice must be untouched (the device faults its copy).
	if data[0] != 0xAA {
		t.Error("write fault mutated the caller's buffer")
	}
	// Disarm: next write stores verbatim.
	d.SetWriteFault(nil)
	now = d.Write(now, BlockSize, data, SrcCPU)
	d.Flush(now)
	d.Peek(BlockSize, buf)
	if !bytes.Equal(buf, data) {
		t.Error("disarmed fault still corrupted")
	}
}

func TestCrashFaultTearsOnlyInFlightWrites(t *testing.T) {
	d := NewDevice(NVMSpec())
	done1 := d.Write(0, 0, mkBlock(0x11), SrcCPU)
	done1 = d.Flush(done1) // durable before the crash
	_, done2 := d.WriteAt(done1, done1, BlockSize, mkBlock(0x22), SrcCPU)

	var torn []uint64
	d.SetCrashFault(func(addr uint64, data []byte) []byte {
		torn = append(torn, addr)
		return data[:8] // persist only an 8-byte prefix
	})
	d.Crash(done2 - 1) // second write still in flight

	if len(torn) != 1 || torn[0] != BlockSize {
		t.Fatalf("crash fault fired on %v, want only the in-flight write at %d", torn, BlockSize)
	}
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	if !bytes.Equal(buf, mkBlock(0x11)) {
		t.Error("durable write damaged by crash fault")
	}
	d.Peek(BlockSize, buf)
	for i := 0; i < 8; i++ {
		if buf[i] != 0x22 {
			t.Fatalf("torn prefix byte %d = %#x, want 0x22", i, buf[i])
		}
	}
	for i := 8; i < BlockSize; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d past the tear = %#x, want 0 (never persisted)", i, buf[i])
		}
	}
}

func TestCrashFaultDropAll(t *testing.T) {
	d := NewDevice(NVMSpec())
	_, done := d.WriteAt(0, 0, 0, mkBlock(0x33), SrcCPU)
	d.SetCrashFault(func(addr uint64, data []byte) []byte { return nil })
	d.Crash(done - 1)
	buf := make([]byte, BlockSize)
	d.Peek(0, buf)
	for i := range buf {
		if buf[i] != 0 {
			t.Fatalf("dropped write left byte %d = %#x", i, buf[i])
		}
	}
}

func mkBlock(v byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

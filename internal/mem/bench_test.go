package mem

import (
	"fmt"
	"testing"
)

// Hot-path micro-benchmarks for the backing store and device model. Run
// with `go test -bench=. -benchmem ./internal/mem` and compare against a
// baseline with benchstat (see Makefile `bench` targets).

// BenchmarkStorageWriteSeq streams block-sized writes through storage,
// the pattern of cache writebacks and checkpoint flushes.
func BenchmarkStorageWriteSeq(b *testing.B) {
	s := NewStorage()
	var buf [BlockSize]byte
	const span = 32 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i*BlockSize)%span, buf[:])
	}
}

// BenchmarkStorageReadHit re-reads blocks of a touched region: the common
// case of every simulated memory access.
func BenchmarkStorageReadHit(b *testing.B) {
	s := NewStorage()
	var buf [BlockSize]byte
	const span = 4 << 20
	for a := uint64(0); a < span; a += PageSize {
		s.Write(a, make([]byte, PageSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i*37*BlockSize)%span, buf[:])
	}
}

// BenchmarkStorageReadZero reads untouched (zero) space, exercising the
// zero-fill path.
func BenchmarkStorageReadZero(b *testing.B) {
	s := NewStorage()
	var buf [PageSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i)*PageSize%(1<<30), buf[:])
	}
}

// BenchmarkStorageClone deep-copies a 4 MB storage (the verification
// oracle's per-checkpoint snapshot).
func BenchmarkStorageClone(b *testing.B) {
	s := NewStorage()
	for a := uint64(0); a < 4<<20; a += PageSize {
		s.Write(a, make([]byte, PageSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if c.FootprintBytes() != s.FootprintBytes() {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkDeviceReadBlock performs timed block reads against an NVM
// device with realistic bank/row-buffer state.
func BenchmarkDeviceReadBlock(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Read(now, uint64(i*31*BlockSize)%span, buf[:])
	}
}

// BenchmarkDeviceWriteBlock posts block writes (the posted-write queue
// path, including buffer management).
func BenchmarkDeviceWriteBlock(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Write(now, uint64(i*31*BlockSize)%span, buf[:], SrcCPU)
	}
}

// BenchmarkDeviceSettlePerAccess retires the posted-write queue after
// every single write — the pre-batching behavior, where each access paid
// a settle walk. Contrast with BenchmarkDeviceSettleBatch.
func BenchmarkDeviceSettlePerAccess(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Write(now, uint64(i*31*BlockSize)%span, buf[:], SrcCPU)
		now = d.Flush(now)
	}
}

// BenchmarkDeviceSettleBatch posts a full queue of writes and retires them
// in one settleBatch run — the batched epoch-pipeline pattern. Reported
// per write for direct comparison with BenchmarkDeviceSettlePerAccess.
func BenchmarkDeviceSettleBatch(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	const batch = 48 // below the queue cap, so no stall path interferes
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			now = d.Write(now, uint64((i+j)*31*BlockSize)%span, buf[:], SrcCPU)
		}
		now = d.Flush(now)
	}
}

// benchmarkDevicePost posts block writes and reads a block of the written
// page after each post, every 8th time the written block itself, so reads
// forward from the queue. Half the writes go to one hot bank, so bank
// backlogs are uneven. Time advances to the completion of the write posted
// depth writes earlier, which holds the queue at a steady depth; the hot
// bank retires last, so fewer than depth writes stay live. The live count
// is reported per op.
func benchmarkDevicePost(b *testing.B, depth int) {
	spec := NVMSpec()
	d := NewDevice(spec)
	var buf [BlockSize]byte
	const span = 16 << 20
	rowSpan := spec.RowBytes * uint64(spec.Banks)
	done := make([]Cycle, depth)
	now := Cycle(0)
	live := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*97*BlockSize) % span
		if i%2 == 0 {
			addr = uint64(i*7)%(span/rowSpan)*rowSpan + uint64(i*31)%(spec.RowBytes/BlockSize)*BlockSize
		}
		k := i % depth
		if done[k] > now {
			now = done[k]
		}
		var ack Cycle
		ack, done[k] = d.WriteAt(now, now, addr, buf[:], SrcCPU)
		now = ack
		r := PageAlign(addr) + uint64(i*13)%(PageSize/BlockSize)*BlockSize
		if i%8 == 0 {
			r = addr
		}
		d.Read(now, r, buf[:])
		live += d.PendingWrites(now)
	}
	b.ReportMetric(float64(live)/float64(b.N), "live")
}

// BenchmarkDevicePostDeep runs the post-and-read loop at the queue depth
// the KV experiments run at (~290 live writes). The CI depth guard fails
// when it costs more than 2.5x BenchmarkDevicePostShallow: a queue whose
// post or forward cost grows linearly with depth.
func BenchmarkDevicePostDeep(b *testing.B) { benchmarkDevicePost(b, 512) }

// BenchmarkDevicePostShallow runs the same loop at ~32 live writes.
func BenchmarkDevicePostShallow(b *testing.B) { benchmarkDevicePost(b, 56) }

// BenchmarkChecksum sums a 64 B block (the integrity layer's granule and
// a commit header's size class) and a 75 KB blob (a Shadow page table at
// kv's 4 KB cells).
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{BlockSize, 75 << 10} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i * 131)
		}
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				Checksum(buf)
			}
		})
	}
}

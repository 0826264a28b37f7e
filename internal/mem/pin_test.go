package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// pinSum is the running digest of everything a device shows the outside.
type pinSum struct{ hash.Hash }

func (h pinSum) put(vals ...uint64) {
	var w [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
}

func (h pinSum) stats(s DeviceStats) {
	h.put(s.Reads, s.Writes, s.BytesRead, s.BytesWritten, s.RowHits, s.RowMisses)
	h.put(s.BytesBySource[:]...)
}

// The pinned workload's footprint: two 1 MB regions 16 MiB apart, so
// their pages share direct-mapped page buckets.
const pinRegion = 1 << 20

var pinBases = [2]uint64{0, 16 << 20}

// image hashes the footprint as read reports it.
func (h pinSum) image(read func(addr uint64, buf []byte)) {
	buf := make([]byte, pinRegion)
	for _, base := range pinBases {
		read(base, buf)
		h.Write(buf)
	}
}

// TestDeviceBehaviourPinned drives an NVM device with a seeded mix of
// posted writes (single blocks, sub-block pieces, pages, 3–80 KB blobs
// over several banks, some issued in the future) that keeps a few hundred
// writes in flight with half of them on one hot bank, so posts
// occasionally hit the queue cap and stall. Reads, background reads and
// peeks land on zero, one or many pending writes; completion order
// inverts posting order on purpose (a multi-bank write, then a
// single-bank write to one of its blocks); a write fault tears or flips
// some payloads; crashes at random cuts tear some in-flight writes and
// restart time below the completions they dropped; durable snapshots are
// taken at random cuts. A volatile DRAM device runs a smaller mix with
// crashes for the clear path. The digest covers every returned cycle and
// byte, MaxPendingDone, PendingWrites, Flush, Stats, the crash hook's
// call sequence and the crash and snapshot images. The constant was
// captured on the completion-sorted queue that the completion heap and
// page chains replaced.
func TestDeviceBehaviourPinned(t *testing.T) {
	const want = "2ed8d17d2ea7609aaea6504f6bd19861808b917d872e3c16d37e387a507428b5"
	h := pinSum{sha256.New()}
	rng := rand.New(rand.NewSource(17))
	spec := NVMSpec()
	nvm := NewDevice(spec)
	dram := NewDevice(DRAMSpec())

	frng := rand.New(rand.NewSource(18))
	nvm.SetWriteFault(func(addr uint64, data []byte, src WriteSource) []byte {
		switch r := frng.Intn(100); {
		case r < 6 && len(data) > 1:
			return data[:1+frng.Intn(len(data)-1)] // torn tail
		case r < 9:
			alt := append([]byte(nil), data...) // flipped copy
			alt[frng.Intn(len(alt))] ^= 1 << frng.Intn(8)
			return alt
		case r < 11:
			data[frng.Intn(len(data))] ^= 0x80 // flipped in place
			return data
		}
		return nil
	})
	crng := rand.New(rand.NewSource(19))
	nvm.SetCrashFault(func(addr uint64, data []byte) []byte {
		h.put('c', addr, uint64(len(data)))
		h.Write(data)
		switch r := crng.Intn(10); {
		case r < 3 && len(data) > 0:
			return data[:crng.Intn(len(data)+1)]
		case r < 4:
			alt := append([]byte(nil), data...)
			if len(alt) > 0 {
				alt[0] ^= 1
			}
			return alt
		}
		return nil
	})

	// pick returns an address in the footprint; hot ones sit on bank 0.
	rowSpan := spec.RowBytes * uint64(spec.Banks)
	pick := func(hot bool) uint64 {
		base := pinBases[0]
		if rng.Intn(4) == 0 {
			base = pinBases[1]
		}
		if hot {
			return base + uint64(rng.Int63n(pinRegion/int64(rowSpan)))*rowSpan + uint64(rng.Int63n(int64(spec.RowBytes)))
		}
		return base + uint64(rng.Int63n(pinRegion))
	}
	// fit pulls [addr, addr+n) back inside its region.
	fit := func(addr uint64, n int) uint64 {
		base := addr &^ (pinRegion - 1)
		if addr+uint64(n) > base+pinRegion {
			addr = base + pinRegion - uint64(n)
		}
		return addr
	}
	data := make([]byte, 80<<10)
	buf := make([]byte, 48<<10)
	now := Cycle(0)
	post := func(d *Device, issueAt Cycle, addr uint64, n int, src WriteSource) Cycle {
		rng.Read(data[:n])
		ack, done := d.WriteAt(now, issueAt, addr, data[:n], src)
		h.put('w', addr, uint64(n), uint64(ack), uint64(done))
		now = ack
		return done
	}
	const ops = 40_000
	for i := 0; i < ops; i++ {
		// Post fast while fewer writes than the phase's target are in
		// flight and slowly above it: ~300 most of the time, bursts past
		// the queue cap, short drains.
		if nvm.PendingWrites(now) < [...]int{300, 300, 700, 300, 100}[(i/1000)%5] {
			now += Cycle(rng.Intn(100))
		} else {
			now += Cycle(rng.Intn(2000))
		}
		hot := rng.Intn(2) == 0
		switch r := rng.Intn(1000); {
		case r < 260:
			post(nvm, now, BlockAlign(pick(hot)), BlockSize, SrcCPU)
		case r < 310:
			n := 1 + rng.Intn(16)
			a := pick(hot)
			if room := int(BlockSize - a%BlockSize); n > room {
				n = room
			}
			post(nvm, now, a, n, SrcCPU)
		case r < 340:
			post(nvm, now, PageAlign(pick(hot)), PageSize, SrcCheckpoint)
		case r < 350:
			n := 3<<10 + rng.Intn(77<<10)
			post(nvm, now, fit(BlockAlign(pick(false)), n), n, SrcMigration)
		case r < 380:
			// Completion inverts posting order: a two-bank write, then a
			// single block of it, which may sit on the idler bank.
			row := BlockAlign(pick(false)) / spec.RowBytes * spec.RowBytes
			a := fit(row+spec.RowBytes-PageSize, 2*PageSize)
			post(nvm, now, a, 2*PageSize, SrcCheckpoint)
			post(nvm, now, a+uint64(rng.Intn(2*PageSize/BlockSize))*BlockSize, BlockSize, SrcCPU)
		case r < 400:
			issue := now + Cycle(rng.Intn(20_000))
			n := BlockSize << uint(rng.Intn(7))
			post(nvm, issue, fit(BlockAlign(pick(hot)), n), n, SrcCheckpoint)
		case r < 700:
			n := BlockSize
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(BlockSize)
			}
			a := fit(pick(hot), n)
			done := nvm.Read(now, a, buf[:n])
			h.put('r', a, uint64(n), uint64(done))
			h.Write(buf[:n])
			if rng.Intn(8) == 0 {
				now = done
			}
		case r < 760:
			n := PageSize
			if rng.Intn(3) == 0 {
				n = PageSize + rng.Intn(len(buf)-PageSize)
			}
			a := fit(pick(false), n)
			done := nvm.ReadBackground(now, a, buf[:n])
			h.put('b', a, uint64(n), uint64(done))
			h.Write(buf[:n])
		case r < 860:
			n := 1 + rng.Intn(len(buf))
			a := fit(pick(false), n)
			nvm.Peek(a, buf[:n])
			h.put('p', a, uint64(n))
			h.Write(buf[:n])
		case r < 960:
			h.put('m', uint64(nvm.MaxPendingDone(now)), uint64(nvm.PendingWrites(now)))
		case r < 990:
			// The DRAM device: block traffic; rare crashes clear it.
			a := BlockAlign(pick(hot))
			if rng.Intn(2) == 0 {
				post(dram, now, a, BlockSize, SrcCPU)
			} else {
				done := dram.Read(now, a, buf[:BlockSize])
				h.put('R', uint64(done))
				h.Write(buf[:BlockSize])
			}
			if rng.Intn(100) == 0 {
				at := now + Cycle(rng.Int63n(int64(dram.MaxPendingDone(now)-now)+1))
				dram.Crash(at)
				h.image(dram.Peek)
			}
		default:
			switch rng.Intn(40) {
			case 0:
				now = nvm.Flush(now)
				h.put('f', uint64(now), uint64(nvm.PendingWrites(now)))
			case 1:
				at := now + Cycle(rng.Int63n(int64(nvm.MaxPendingDone(now)-now)+1))
				h.put('s', uint64(at))
				h.image(nvm.DurableSnapshot(at).Read)
			case 2:
				// Crash inside the in-flight window, then carry on from
				// before the crash instant: the next posts land below the
				// completions the crash dropped.
				at := now + Cycle(rng.Int63n(int64(nvm.MaxPendingDone(now)-now)+1))
				h.put('C', uint64(at))
				nvm.Crash(at)
				h.image(nvm.Peek)
				post(nvm, now, BlockAlign(pick(hot)), BlockSize, SrcCPU)
				h.put('M', uint64(nvm.MaxPendingDone(now)), uint64(nvm.PendingWrites(now)))
			default:
				h.put('P', uint64(nvm.PendingWrites(now)), uint64(nvm.Stats().Writes))
			}
		}
	}
	h.put(uint64(nvm.MaxPendingDone(now)), uint64(nvm.PendingWrites(now)))
	now = nvm.Flush(now)
	h.put(uint64(now), uint64(nvm.Flush(now)), uint64(dram.Flush(now)))
	h.image(nvm.Peek)
	h.image(dram.Peek)
	h.stats(nvm.Stats())
	h.stats(dram.Stats())
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("behaviour digest = %s, want %s", got, want)
	}
}

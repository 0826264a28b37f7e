package commit

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

var magics = []struct {
	name  string
	magic Magic
}{{"thynvm", ThyNVM}, {"baseline", Baseline}}

// TestVerdictTable runs the degraded-mode decision table (DESIGN.md §13)
// over synthetic scans, one row per case.
func TestVerdictTable(t *testing.T) {
	found := func(seq uint64) Scan { return Scan{Found: true, Best: Header{Seq: seq}, slots: 4} }
	with := func(sc Scan, f func(*Scan)) Scan { f(&sc); return sc }
	clean := func(gen uint64, depth int) ctl.RecoveryReport {
		r := ctl.RecoveryReport{Generation: gen, FallbackDepth: depth}
		if depth > 0 {
			r.Class = ctl.RecoveredFallback
		}
		return r
	}
	refused := func(depth int) ctl.RecoveryReport {
		return ctl.RecoveryReport{Class: ctl.Unrecoverable, FallbackDepth: depth}
	}
	cold := ctl.RecoveryReport{Class: ctl.RecoveredClean, ColdStart: true}
	rows := []struct {
		name      string
		scan      Scan
		want      ctl.RecoveryReport
		refuse    bool
		wantFloor uint64 // the floor recovery resumes from
	}{
		{"clean", with(found(3), func(s *Scan) { s.Floor = 2 }), clean(3, 0), false, 2},
		{"clean-past-rotation-wear", with(found(3), func(s *Scan) { s.BlobDamage = 1 }), clean(3, 0), false, 0},
		{"fallback", with(found(1), func(s *Scan) { s.BlobDamage, s.Depth, s.Floor = 2, 2, 1 }), clean(1, 2), false, 1},
		{"fallback-past-media", with(found(2), func(s *Scan) { s.MediaDamage, s.Depth = 1, 1 }), clean(2, 1), false, 0},
		{"cold-start-torn-only", Scan{Torn: 2, slots: 4}, cold, false, 0},
		{"cold-start-empty", Scan{slots: 4}, cold, false, 0},
		{"refuse-damaged-no-intact", Scan{BlobDamage: 1, MediaDamage: 1, Depth: 2, slots: 4}, refused(2), true, 0},
		{"refuse-floor-no-intact", Scan{Torn: 1, Floor: 3, slots: 4}, refused(0), true, 3},
		{"refuse-below-floor", with(found(1), func(s *Scan) { s.BlobDamage, s.Depth, s.Floor = 1, 1, 2 }), refused(1), true, 2},
		{"refuse-guard-and-slot-damaged", with(found(3), func(s *Scan) { s.GuardDamaged, s.MediaDamage, s.Depth = true, 1, 1 }), refused(1), true, 0},
		{"guard-damaged-torn-only", with(found(4), func(s *Scan) { s.GuardDamaged, s.Torn = true, 1 }), clean(4, 0), false, 4},
		{"guard-damaged-cold-start", Scan{GuardDamaged: true, Torn: 1, slots: 4}, cold, false, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sc := row.scan
			sc.sys = "test"
			rep, err := sc.Verdict()
			if row.refuse != errors.Is(err, ctl.ErrUnrecoverable) || (!row.refuse && err != nil) {
				t.Fatalf("Verdict error %v, want refusal %v", err, row.refuse)
			}
			if rep != row.want {
				t.Errorf("report %+v, want %+v", rep, row.want)
			}
			if sc.Floor != row.wantFloor {
				t.Errorf("resumed floor %d, want %d", sc.Floor, row.wantFloor)
			}
		})
	}
}

// TestHeaderChecksumDetectsEveryByteFlip flips every bit of every
// checksummed byte of a header and a guard record, for both schemes'
// magics: each flip must be rejected, the pristine record accepted.
func TestHeaderChecksumDetectsEveryByteFlip(t *testing.T) {
	for _, m := range magics {
		var hdr, guard [RecordSize]byte
		m.magic.EncodeHeader(hdr[:], Header{Seq: 7, BlobAddr: 1024, BlobLen: 512, BlobSum: 0xdeadbeef})
		m.magic.EncodeGuard(guard[:], 5)
		decoders := []struct {
			rec     []byte
			covered int
			decode  func([]byte) error
		}{
			{hdr[:], 48, func(b []byte) error { _, err := m.magic.DecodeHeader(b); return err }},
			{guard[:], 24, func(b []byte) error { _, err := m.magic.DecodeGuard(b); return err }},
		}
		for _, d := range decoders {
			if err := d.decode(d.rec); err != nil {
				t.Errorf("%s: pristine record rejected: %v", m.name, err)
			}
			for i := 0; i < d.covered; i++ {
				for bit := 0; bit < 8; bit++ {
					mutated := append([]byte(nil), d.rec...)
					mutated[i] ^= 1 << bit
					if d.decode(mutated) == nil {
						t.Errorf("%s: flip of bit %d in byte %d went undetected", m.name, bit, i)
					}
				}
			}
		}
	}
}

// TestRecordBytesPinned pins the on-media bytes of both schemes' header and
// guard records, so an image written by one version recovers under the
// next. The self-sums were re-pinned when mem.Checksum changed from
// byte-wise FNV-1a to XXH64; every other byte is as each scheme's own codec
// wrote it before the codec was shared.
func TestRecordBytesPinned(t *testing.T) {
	const zero16 = "00000000000000000000000000000000"
	pins := []struct {
		magic         Magic
		header, guard string
	}{
		{ThyNVM,
			"44484d564e594854070000000000000000100004000000000802000000000000efcdab8967452301e64760ea0055a006" + zero16,
			"53474d564e59485403000000000000003df757f89b4d0240" + zero16 + zero16 + "0000000000000000"},
		{Baseline,
			"52444d4845534142070000000000000000100004000000000802000000000000efcdab8967452301d6a652ca9bfbf1a3" + zero16,
			"52415547455341420300000000000000168b4ab5df641fcf" + zero16 + zero16 + "0000000000000000"},
	}
	for _, p := range pins {
		var hdr, guard [RecordSize]byte
		p.magic.EncodeHeader(hdr[:], Header{Seq: 7, BlobAddr: 0x4001000, BlobLen: 520, BlobSum: 0x0123456789abcdef})
		p.magic.EncodeGuard(guard[:], 3)
		if got := hex.EncodeToString(hdr[:]); got != p.header {
			t.Errorf("%#x header bytes\n got %s\nwant %s", p.magic.Header, got, p.header)
		}
		if got := hex.EncodeToString(guard[:]); got != p.guard {
			t.Errorf("%#x guard bytes\n got %s\nwant %s", p.magic.Guard, got, p.guard)
		}
	}
}

// TestGuardRaise checks the raise's contract: monotone, one durable write
// per new floor, destructive writes ordered after the latest raise, and a
// pass-through with the guard off.
func TestGuardRaise(t *testing.T) {
	nvm := mem.NewDevice(mem.NVMSpec())
	m := NewMeta("test", ThyNVM, 1<<20, 4, false, nvm.Storage())
	g := &m.Guard
	after := g.Raise(nvm, 100, 100, 2)
	if after <= 100 || after != g.Done() {
		t.Fatalf("first raise returned %d (done %d), want the guard write's completion past 100", after, g.Done())
	}
	writes := nvm.Stats().Writes
	if got := g.Raise(nvm, 200, 150, 2); got != after || nvm.Stats().Writes != writes {
		t.Errorf("repeated floor: returned %d after %d writes, want %d with no new write", got, nvm.Stats().Writes-writes, after)
	}
	if got := g.Raise(nvm, 200, after+10, 1); got != after+10 {
		t.Errorf("lower floor: returned %d, want issueAt %d", got, after+10)
	}
	g.Raise(nvm, 300, 300, 3)
	nvm.Flush(1 << 40)
	var rec [RecordSize]byte
	nvm.Peek(m.Guard.addr, rec[:])
	if floor, err := ThyNVM.DecodeGuard(rec[:]); err != nil || floor != 3 {
		t.Errorf("durable guard = (%d, %v), want floor 3", floor, err)
	}

	off := NewMeta("test", ThyNVM, 1<<20, 2, false, nvm.Storage())
	writes = nvm.Stats().Writes
	if got := off.Guard.Raise(nvm, 500, 400, 9); got != 400 || nvm.Stats().Writes != writes {
		t.Errorf("guard off: returned %d after %d writes, want issueAt 400 and no write", got, nvm.Stats().Writes-writes)
	}
}

// TestCommit checks the one commit path: each header completes after its
// blob and no earlier than hdrAt, Seq rises by one a commit, Bump grows
// only when an area grows, the K+1-th commit reuses area 0, Crash resets
// Seq and Bump, and Recover restores both past the surviving blob.
func TestCommit(t *testing.T) {
	const k = 3
	nvm := mem.NewDevice(mem.NVMSpec())
	m := NewMeta("test", ThyNVM, 1<<20, k, false, nvm.Storage())
	start := m.DataStart()
	if m.Seq != 0 || m.Bump != start {
		t.Fatalf("new Meta: Seq %d, Bump %#x; want 0, %#x", m.Seq, m.Bump, start)
	}
	small, big := []byte("a one-page blob"), make([]byte, mem.PageSize+1)
	commit := func(now, blobAt, hdrAt mem.Cycle, blob []byte, wantBump uint64) mem.Cycle {
		t.Helper()
		seq := m.Seq
		blobDone, done := m.Commit(nvm, now, blobAt, hdrAt, blob)
		if blobDone <= blobAt || done <= max(blobDone, hdrAt) {
			t.Errorf("commit %d: blob issued at %d done at %d, header done at %d; want the header after the blob and after %d",
				seq, blobAt, blobDone, done, hdrAt)
		}
		if m.Seq != seq+1 {
			t.Errorf("commit %d: Seq %d, want %d", seq, m.Seq, seq+1)
		}
		if m.Bump != wantBump {
			t.Errorf("commit %d: Bump %#x, want %#x", seq, m.Bump, wantBump)
		}
		return done
	}
	var now mem.Cycle = 1000
	for i := uint64(0); i < k; i++ {
		now = commit(now, now+500, now, small, start+(i+1)*mem.PageSize)
	}
	now = commit(now, now, now, small, start+k*mem.PageSize) // the K+1-th: area 0 again
	hdrAt := now + 1_000_000
	now = commit(now, now, hdrAt, big, start+(k+2)*mem.PageSize) // area 1 grows to two pages
	nvm.Flush(now)
	var rec [RecordSize]byte
	nvm.Peek(m.HeaderAddr(0), rec[:])
	if h, err := ThyNVM.DecodeHeader(rec[:]); err != nil || h.Seq != k || h.BlobAddr != start {
		t.Errorf("header slot 0 = (%+v, %v), want generation %d naming area 0 at %#x", h, err, k, start)
	}

	m.Crash()
	if m.Seq != 0 || m.Bump != start {
		t.Fatalf("after Crash: Seq %d, Bump %#x; want 0, %#x", m.Seq, m.Bump, start)
	}
	decode := func(blob []byte) ([]byte, []Copy, error) { return []byte("cpu"), nil, nil }
	if cpu, _, err := m.Recover(&ctl.Durable{Dev: nvm}, func(mem.Cycle) {}, "a test blob", decode); err != nil || string(cpu) != "cpu" {
		t.Fatalf("Recover = (%q, %v)", cpu, err)
	}
	// The surviving blob is generation k+1's: two pages at start+k pages.
	if m.Seq != k+2 || m.Bump != start+(k+2)*mem.PageSize {
		t.Errorf("after Recover: Seq %d, Bump %#x; want %d, %#x", m.Seq, m.Bump, k+2, start+(k+2)*mem.PageSize)
	}
}

// TestScanBlobOutsideDevice: a header whose checksums hold but whose blob
// range wraps or exceeds everything ever written is blob damage — never a
// panic or an unbounded read.
func TestScanBlobOutsideDevice(t *testing.T) {
	nvm := mem.NewDevice(mem.NVMSpec())
	m := NewMeta("test", Baseline, 1<<20, 4, false, nvm.Storage())
	blob := []byte("an intact blob")
	addr := m.DataStart()
	nvm.Poke(addr, blob)
	headers := []Header{
		{Seq: 0, BlobAddr: addr, BlobLen: uint64(len(blob)), BlobSum: mem.Checksum(blob)},
		{Seq: 1, BlobAddr: ^uint64(0) - 8, BlobLen: 64, BlobSum: 1},
		{Seq: 2, BlobAddr: addr, BlobLen: 1 << 62, BlobSum: 1},
		{Seq: 3, BlobAddr: 7 << 20, BlobLen: 2 << 20, BlobSum: 1},
	}
	for i, h := range headers {
		var rec [RecordSize]byte
		Baseline.EncodeHeader(rec[:], h)
		nvm.Poke(m.HeaderAddr(uint64(i)), rec[:])
	}
	sc, _ := m.Scan(nvm, 0)
	if !sc.Found || sc.Best.Seq != 0 || sc.BlobDamage != 3 || sc.Depth != 3 {
		t.Errorf("scan = %+v, want generation 0 past 3 damaged blobs", sc)
	}
}

// FuzzDecodeHeader: for every scheme's magic the header decoder never
// panics, rejects only with its typed errors, accepts exactly the records
// its encoder writes (over the checksummed 48 bytes), and round-trips.
func FuzzDecodeHeader(f *testing.F) {
	for _, m := range magics {
		for _, h := range []Header{{}, {Seq: 7, BlobAddr: 0x4001000, BlobLen: 520, BlobSum: 0x0123456789abcdef}, {BlobLen: 1 << 62, BlobSum: 1}} {
			var rec [RecordSize]byte
			m.magic.EncodeHeader(rec[:], h)
			f.Add(rec[:], h.Seq, h.BlobAddr, h.BlobLen, h.BlobSum)
		}
	}
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, b []byte, seq, addr, n, sum uint64) {
		x := Header{Seq: seq, BlobAddr: addr, BlobLen: n, BlobSum: sum}
		for _, m := range magics {
			if h, err := m.magic.DecodeHeader(b); err != nil {
				if !errors.Is(err, ErrRecord) {
					t.Fatalf("%s: untyped rejection %v", m.name, err)
				}
			} else {
				var rec [RecordSize]byte
				m.magic.EncodeHeader(rec[:], h)
				if !bytes.Equal(rec[:48], b[:48]) {
					t.Fatalf("%s: accepted %x, which re-encodes as %x", m.name, b[:48], rec[:48])
				}
			}
			var rec [RecordSize]byte
			m.magic.EncodeHeader(rec[:], x)
			if got, err := m.magic.DecodeHeader(rec[:]); err != nil || got != x {
				t.Fatalf("%s: round trip of %+v = (%+v, %v)", m.name, x, got, err)
			}
		}
	})
}

// FuzzDecodeGuard is FuzzDecodeHeader for the guard record.
func FuzzDecodeGuard(f *testing.F) {
	for _, m := range magics {
		for _, floor := range []uint64{0, 3, ^uint64(0)} {
			var rec [RecordSize]byte
			m.magic.EncodeGuard(rec[:], floor)
			f.Add(rec[:], floor)
		}
	}
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, b []byte, floor uint64) {
		for _, m := range magics {
			if got, err := m.magic.DecodeGuard(b); err != nil {
				if !errors.Is(err, ErrRecord) {
					t.Fatalf("%s: untyped rejection %v", m.name, err)
				}
			} else {
				var rec [RecordSize]byte
				m.magic.EncodeGuard(rec[:], got)
				if !bytes.Equal(rec[:24], b[:24]) {
					t.Fatalf("%s: accepted %x, which re-encodes as %x", m.name, b[:24], rec[:24])
				}
			}
			var rec [RecordSize]byte
			m.magic.EncodeGuard(rec[:], floor)
			if got, err := m.magic.DecodeGuard(rec[:]); err != nil || got != floor {
				t.Fatalf("%s: round trip of floor %d = (%d, %v)", m.name, floor, got, err)
			}
		}
	})
}

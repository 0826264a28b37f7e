package alloc

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	a := MustNew(4096, 1<<20)
	p1, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == 0 || p2 == 0 || p1 == p2 {
		t.Errorf("bad addresses %d %d", p1, p2)
	}
	if p1%16 != 0 || p2%16 != 0 {
		t.Error("unaligned allocations")
	}
}

func TestFreeReuses(t *testing.T) {
	a := MustNew(4096, 1<<20)
	p1, _ := a.Alloc(32)
	a.Free(p1, 32)
	p2, _ := a.Alloc(32)
	if p1 != p2 {
		t.Errorf("freed extent not reused: %d vs %d", p1, p2)
	}
}

func TestExhaustion(t *testing.T) {
	a := MustNew(4096, 64)
	if _, err := a.Alloc(48); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(48); err == nil {
		t.Error("over-allocation accepted")
	}
}

func TestZeroBaseRejected(t *testing.T) {
	if _, err := New(0, 100); err == nil {
		t.Error("zero base accepted; 0 must stay the null pointer")
	}
}

func TestInUseBytes(t *testing.T) {
	a := MustNew(4096, 1<<20)
	p, _ := a.Alloc(100) // rounds to 112
	if got := a.InUseBytes(); got != 112 {
		t.Errorf("InUseBytes = %d, want 112", got)
	}
	a.Free(p, 100)
	if got := a.InUseBytes(); got != 0 {
		t.Errorf("InUseBytes after free = %d, want 0", got)
	}
}

func TestSerializeRestoreRoundTrip(t *testing.T) {
	a := MustNew(4096, 1<<20)
	p1, _ := a.Alloc(64)
	a.Alloc(128)
	a.Free(p1, 64)
	r, err := Restore(a.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	// The restored arena must hand out the same next addresses.
	w1, _ := a.Alloc(64)
	g1, _ := r.Alloc(64)
	if w1 != g1 {
		t.Errorf("restored arena diverges: %d vs %d", g1, w1)
	}
	w2, _ := a.Alloc(256)
	g2, _ := r.Alloc(256)
	if w2 != g2 {
		t.Errorf("restored arena bump diverges: %d vs %d", g2, w2)
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	a := MustNew(4096, 1<<20)
	a.Alloc(16)
	b := a.Serialize()
	if _, err := Restore(b[:len(b)-1]); err == nil {
		t.Error("truncated state accepted")
	}
}

// words encodes v as Serialize does.
func words(v ...uint64) []byte {
	var b []byte
	for _, w := range v {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Crafted state read back from persistent memory is refused, not trusted:
// a huge count must not reach make, and bounds New would reject must not
// reach Alloc.
func TestRestoreRejectsCrafted(t *testing.T) {
	const base, end = 4096, 4096 + 1<<20
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"huge count", words(base, end, base+64, 1, 16, 1<<62)},
		{"zero base", words(0, end, 64, 0)},
		{"next past end", words(base, end, end+16, 0)},
		{"next below base", words(base, end, base-16, 0)},
		{"zero size class", words(base, end, base+64, 1, 0, 1, base)},
		{"unaligned size class", words(base, end, base+64, 1, 24, 1, base)},
		{"free extent past next", words(base, end, base+64, 1, 16, 1, base+64)},
		{"free extent below base", words(base, end, base+64, 1, 16, 1, base-16)},
		{"trailing bytes", append(words(base, end, base+64, 0), 0)},
	} {
		if _, err := Restore(tc.blob); err == nil {
			t.Errorf("%s: state accepted", tc.name)
		}
	}
}

// FuzzRestore: Restore never panics, and any state it accepts survives a
// Serialize round trip unchanged.
func FuzzRestore(f *testing.F) {
	a := MustNew(4096, 1<<20)
	p, _ := a.Alloc(64)
	a.Alloc(128)
	a.Free(p, 64)
	f.Add(a.Serialize())
	f.Add(words(4096, 8192, 4160, 1, 16, 1<<62))
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := Restore(b)
		if err != nil {
			return
		}
		out := a.Serialize()
		r, err := Restore(out)
		if err != nil {
			t.Fatalf("Restore refused Serialize output %x of accepted state %x: %v", out, b, err)
		}
		if again := r.Serialize(); !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the state: %x, then %x", out, again)
		}
	})
}

// Property: allocations never overlap and stay within the arena.
func TestNoOverlapQuick(t *testing.T) {
	prop := func(sizes []uint8) bool {
		a := MustNew(1<<16, 1<<20)
		type ext struct{ addr, size uint64 }
		var live []ext
		for _, s := range sizes {
			n := int(s) + 1
			addr, err := a.Alloc(n)
			if err != nil {
				return true // exhaustion is fine
			}
			if addr < 1<<16 || addr+roundSize(n) > 1<<16+1<<20 {
				return false
			}
			for _, e := range live {
				if addr < e.addr+e.size && e.addr < addr+roundSize(n) {
					return false // overlap
				}
			}
			live = append(live, ext{addr, roundSize(n)})
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package thynvm_test

import (
	"bytes"
	"math/rand"
	"testing"

	"thynvm"
)

// TestRangePeekEqualsBlockPeeks: a controller peeks any whole-block span in
// one PeekBlock call, and the bytes must equal one peek per block, on all
// five systems, with writes still posted on the devices, and again with
// integrity on and a dead chunk in the durable image. A cacheless machine's
// Peek, which hands an aligned span to the controller whole, must equal its
// per-block path too.
func TestRangePeekEqualsBlockPeeks(t *testing.T) {
	const (
		footprint = 64 << 10
		span      = 4 << 10
		block     = 64
	)
	for _, integrity := range []bool{false, true} {
		for _, kind := range thynvm.AllSystems() {
			opts := smallOpts()
			opts.NoCaches = true
			opts.Integrity = integrity
			sys := thynvm.MustNewSystem(kind, opts)
			rng := rand.New(rand.NewSource(int64(kind)))
			data := make([]byte, 3*block)
			write := func(n int) {
				for i := 0; i < n; i++ {
					rng.Read(data)
					sys.Write(uint64(rng.Intn(footprint-len(data))), data[:1+rng.Intn(len(data))])
				}
			}
			write(400)
			sys.Checkpoint()
			write(200)
			posted, dead := false, false
			if integrity {
				if len(sys.NVMStorage().InjectDeadChunks(uint64(kind)+1, 1)) == 0 {
					t.Fatalf("%s: no dead chunk injected", kind)
				}
			}
			ctrl := sys.Controller()
			got := make([]byte, span)
			want := make([]byte, span)
			raw := make([]byte, span)
			for base := uint64(0); base < footprint; base += span {
				clear(got)
				ctrl.PeekBlock(base, got)
				for off := 0; off < span; off += block {
					ctrl.PeekBlock(base+uint64(off), want[off:off+block])
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s integrity=%v: 4 KiB PeekBlock at %#x differs from 64 block peeks", kind, integrity, base)
				}
				clear(got)
				sys.Peek(base, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s integrity=%v: cacheless Machine.Peek at %#x differs from block peeks", kind, integrity, base)
				}
				// An unaligned start takes the machine's per-block path.
				clear(got)
				got[0] = want[0]
				sys.Peek(base+1, got[1:])
				if !bytes.Equal(got, want) {
					t.Fatalf("%s integrity=%v: Machine.Peek per-block path at %#x differs from block peeks", kind, integrity, base)
				}
				sys.NVMStorage().Read(base, raw)
				posted = posted || !bytes.Equal(raw, want)
				dead = dead || bytes.Equal(want, bytes.Repeat([]byte{0xDE}, span))
			}
			// On an ideal NVM system the footprint's durable image is the
			// device's own: a difference is a write still posted, and the
			// dead chunk lies in the footprint and reads as poison.
			if kind == thynvm.SystemIdealNVM && !posted {
				t.Errorf("%s integrity=%v: no write still posted over the footprint", kind, integrity)
			}
			if kind == thynvm.SystemIdealNVM && integrity && !dead {
				t.Errorf("%s: the dead chunk never showed in a peek", kind)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

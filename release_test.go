package thynvm_test

import (
	"bytes"
	"runtime"
	"testing"

	"thynvm"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

// TestClosedSystemsLeaveNothing: on every kind, a system with integrity on
// and both fault hooks set writes 0xFF over 4 MiB, checkpoints, crashes
// with writes in flight and closes, handing its chunks to the pool. A new
// system of every kind then peeks zeros over that range and reports zero
// Stats, and after it writes one byte per page, every other byte of the
// range still reads zero.
func TestClosedSystemsLeaveNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a release stays where the next system looks
	const span = 4 << 20
	opts := smallOpts()
	opts.Integrity = true
	page := bytes.Repeat([]byte{0xFF}, mem.PageSize)
	for _, kind := range thynvm.AllSystems() {
		sys := thynvm.MustNewSystem(kind, opts)
		ctrl := sys.Controller()
		ctrl.SetWriteFault(func(uint64, []byte, mem.WriteSource) []byte { return nil })
		ctrl.SetCrashFault(func(_ uint64, data []byte) []byte { return data })
		for a := uint64(0); a < span; a += mem.PageSize {
			sys.Write(a, page)
		}
		sys.Checkpoint()
		for a := uint64(0); a < span; a += 16 * mem.PageSize {
			sys.Write(a, page)
		}
		sys.Crash()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]byte, span)
	for _, kind := range thynvm.AllSystems() {
		sys := thynvm.MustNewSystem(kind, opts)
		if st := sys.Stats(); st != (thynvm.ControllerStats{}) {
			t.Errorf("%s: a new system reports %+v, want zero Stats", kind, st)
		}
		sys.Peek(0, got)
		if n := span - bytes.Count(got, []byte{0}); n != 0 {
			t.Errorf("%s: a new system peeks %d non-zero bytes", kind, n)
		}
		for a := uint64(0); a < span; a += mem.PageSize {
			sys.Write(a+a/mem.PageSize%mem.PageSize, []byte{1})
		}
		sys.Checkpoint()
		sys.Drain()
		sys.Peek(0, got)
		for a := uint64(0); a < span; a += mem.PageSize {
			got[a+a/mem.PageSize%mem.PageSize]--
		}
		if n := span - bytes.Count(got, []byte{0}); n != 0 {
			t.Errorf("%s: after one byte per page, %d other bytes read non-zero", kind, n)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClosedSystemPanics: a closed system's controller has released its
// devices, so an access panics instead of reaching chunks another system
// now owns, and a second Close does nothing.
func TestClosedSystemPanics(t *testing.T) {
	block := make([]byte, mem.BlockSize)
	for _, kind := range thynvm.AllSystems() {
		for _, tc := range []struct {
			name string
			use  func(c ctl.Controller)
		}{
			{"ReadBlock", func(c ctl.Controller) { c.ReadBlock(0, 0, block) }},
			{"WriteBlock", func(c ctl.Controller) { c.WriteBlock(0, mem.PageSize, block) }},
			{"PeekBlock", func(c ctl.Controller) { c.PeekBlock(0, block) }},
		} {
			sys := thynvm.MustNewSystem(kind, smallOpts())
			sys.Write(0, []byte{1})
			sys.Checkpoint()
			for i := 0; i < 2; i++ {
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s on a closed system did not panic", kind, tc.name)
					}
				}()
				tc.use(sys.Controller())
			}()
		}
	}
}

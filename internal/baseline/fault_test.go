package baseline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"thynvm/internal/commit"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// Multi-generation fallback table: with K retained commit generations,
// corrupting the newest commit's blob must fall back exactly one
// generation; corrupting generations at or below the durable
// generation-safety floor — or all of them — must refuse with a typed
// unrecoverable verdict. The recovered image is always the exact image of
// the generation recovery reports, never a blend. Every fallback, and
// nothing else, logs one recovery_fallback event.

// fallbackEvents returns the recovery_fallback events col logged.
func fallbackEvents(col *obs.Collector) []obs.Event {
	var evs []obs.Event
	for _, e := range col.Events {
		if e.Kind == obs.EvRecoveryFallback {
			evs = append(evs, e)
		}
	}
	return evs
}

// corruptAt flips one byte of NVM at addr, bypassing timing.
func corruptAt(nvm *mem.Device, addr uint64) {
	var b [1]byte
	nvm.Peek(addr, b[:])
	b[0] ^= 0xff
	nvm.Poke(addr, b[:])
}

// fbState describes a crashed system ready for targeted corruption: which
// generations committed, where their blobs live, what image and CPU state
// each one pins, and the lowest generation the durable floor still allows.
type fbState struct {
	ctrl     ctl.Controller
	nvm      *mem.Device
	blobAddr []uint64 // indexed by generation seq
	val      []byte   // expected block-0 value per generation
	cpu      []string // expected CPU state per generation
	floorGen int      // lowest generation fallback may legally reach
}

// buildJournal commits generation 0 normally, then hand-crafts the durable
// state of a power failure caught between generation 1's commit header
// write completing and the guard/apply writes that are ordered after it:
// header 1 and blob 1 durable, the floor still 0, home still generation
// 0's image. That instant is the journal's only fallback window — once the
// in-place apply raises the floor, falling back past it is forbidden.
func buildJournal(t *testing.T) fbState {
	t.Helper()
	cfg := testConfig()
	cfg.Generations = 3
	j, err := NewJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := j.WriteBlock(0, 0, blockOf(1))
	now = j.BeginCheckpoint(now, []byte("cpu-g0")) // committed and applied; floor stays 0
	addr0, size0 := j.meta.AreaSpan(0)
	j.Crash(now + 1_000_000)

	blob := appendJournal(nil, []byte("cpu-g1"), []commit.Copy{{Dst: 0, Data: blockOf(2)}})
	addr1 := (addr0 + size0 + mem.PageSize - 1) &^ (mem.PageSize - 1)
	j.nvm.Poke(addr1, blob)
	slot, header := j.meta.Header(1, addr1, blob)
	j.nvm.Poke(slot, header)
	return fbState{
		ctrl:     j,
		nvm:      j.nvm,
		blobAddr: []uint64{addr0, addr1},
		val:      []byte{1, 2},
		cpu:      []string{"cpu-g0", "cpu-g1"},
		floorGen: 0,
	}
}

// buildShadow commits three generations through the real flush path. Each
// flush overwrites the shadow slot the generation before last still
// references, raising the durable floor to seq-1 first — so after commit
// 2 the floor is 1: one fallback step is legal, two are not.
func buildShadow(t *testing.T) fbState {
	t.Helper()
	cfg := testConfig()
	cfg.Generations = 3
	s, err := NewShadow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := mem.Cycle(0)
	var addrs []uint64
	for gen := byte(0); gen < 3; gen++ {
		now = s.WriteBlock(now, 0, blockOf(gen+1))
		now = s.BeginCheckpoint(now, []byte{'c', 'p', 'u', '-', 'g', '0' + gen})
		addr, _ := s.meta.AreaSpan(uint64(gen))
		addrs = append(addrs, addr)
	}
	s.Crash(now + 1_000_000)
	return fbState{
		ctrl:     s,
		nvm:      s.nvm,
		blobAddr: addrs,
		val:      []byte{1, 2, 3},
		cpu:      []string{"cpu-g0", "cpu-g1", "cpu-g2"},
		floorGen: 1,
	}
}

func TestRecoveryFallbackGenerations(t *testing.T) {
	schemes := []struct {
		name  string
		build func(*testing.T) fbState
	}{
		{"journal", buildJournal},
		{"shadow", buildShadow},
	}
	for _, scheme := range schemes {
		probe := scheme.build(t)
		committed := len(probe.blobAddr)
		floorGen := probe.floorGen

		// Corrupt the newest k generations' blobs, for every k: the verdict
		// must be fallback to the newest intact generation when that is at
		// or above the floor, and a typed refusal otherwise.
		for k := 1; k <= committed; k++ {
			bestGen := committed - 1 - k
			wantRefusal := bestGen < floorGen
			t.Run(fmt.Sprintf("%s-corrupt-newest-%d", scheme.name, k), func(t *testing.T) {
				st := scheme.build(t)
				col := obs.NewCollector()
				st.ctrl.SetRecorder(col)
				for i := 0; i < k; i++ {
					corruptAt(st.nvm, st.blobAddr[committed-1-i]+16)
				}
				cpu, lat, err := st.ctrl.Recover()
				rep := st.ctrl.LastRecovery()
				if wantRefusal {
					if !errors.Is(err, ctl.ErrUnrecoverable) {
						t.Fatalf("corrupt newest %d of %d: Recover = (%q, %v), want ErrUnrecoverable", k, committed, cpu, err)
					}
					if rep.Class != ctl.Unrecoverable {
						t.Fatalf("corrupt newest %d of %d: report %+v, want detected-unrecoverable", k, committed, rep)
					}
					if evs := fallbackEvents(col); len(evs) != 0 {
						t.Fatalf("corrupt newest %d of %d: refusal logged %v, want no fallback event", k, committed, evs)
					}
					return
				}
				if err != nil {
					t.Fatalf("corrupt newest %d of %d: Recover: %v", k, committed, err)
				}
				if string(cpu) != st.cpu[bestGen] {
					t.Fatalf("corrupt newest %d of %d: CPU state %q, want %q", k, committed, cpu, st.cpu[bestGen])
				}
				buf := make([]byte, mem.BlockSize)
				st.ctrl.PeekBlock(0, buf)
				if buf[0] != st.val[bestGen] {
					t.Fatalf("corrupt newest %d of %d: recovered block value %d, want generation %d's value %d",
						k, committed, buf[0], bestGen, st.val[bestGen])
				}
				if rep.Class != ctl.RecoveredFallback || rep.FallbackDepth != k || rep.Generation != uint64(bestGen) {
					t.Fatalf("corrupt newest %d of %d: report %+v, want fallback depth %d to generation %d",
						k, committed, rep, k, bestGen)
				}
				want := obs.Event{Cycle: uint64(lat), Kind: obs.EvRecoveryFallback, A: uint64(bestGen), B: uint64(k)}
				if evs := fallbackEvents(col); len(evs) != 1 || evs[0] != want {
					t.Fatalf("corrupt newest %d of %d: fallback events %v, want [%v]", k, committed, evs, want)
				}
			})
		}

		// Untouched control: the crafted/committed state recovers clean to
		// the newest generation.
		t.Run(scheme.name+"-clean", func(t *testing.T) {
			st := scheme.build(t)
			col := obs.NewCollector()
			st.ctrl.SetRecorder(col)
			cpu, _, err := st.ctrl.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if evs := fallbackEvents(col); len(evs) != 0 {
				t.Fatalf("clean recovery logged %v, want no fallback event", evs)
			}
			newest := committed - 1
			if string(cpu) != st.cpu[newest] {
				t.Fatalf("clean recovery CPU state %q, want %q", cpu, st.cpu[newest])
			}
			if rep := st.ctrl.LastRecovery(); rep.Class != ctl.RecoveredClean || rep.FallbackDepth != 0 {
				t.Fatalf("clean recovery report %+v, want recovered-clean", rep)
			}
		})
	}
}

// words encodes little-endian 64-bit words back to back.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// metaOf returns a journal's or shadow system's NVM device and commit
// metadata.
func metaOf(c ctl.Controller) (*mem.Device, *commit.Meta) {
	switch c := c.(type) {
	case *Journal:
		return c.nvm, c.meta
	case *Shadow:
		return c.nvm, c.meta
	}
	panic("no commit metadata")
}

// TestMalformedMetadataRefused feeds journal and shadow recovery metadata
// whose checksums hold but whose contents are impossible — what damaged
// or crafted media can hold. Each row runs on the NVM's heap-chunk storage
// and must end in a typed refusal, never a panic.
func TestMalformedMetadataRefused(t *testing.T) {
	cfg := testConfig()
	data := cfg.PhysBytes + mem.PageSize // first checkpoint-area address
	type row struct {
		name string
		blob []byte // written at the first checkpoint-area address
		addr uint64 // header's blob address, when not that one
		n    uint64 // header's blob length, when not len(blob)
	}
	common := []row{
		{"zero-length blob", nil, 0, 0},
		{"cpu length wraps negative", words(0xfffffffffffffff8, 0), 0, 0},
		{"cpu length past blob", words(1<<63 - 1), 0, 0},
		{"blob length 1<<62", words(0, 0), 0, 1 << 62},
		{"blob past the device", words(0, 0), ^uint64(0) - 16, 0},
	}
	schemes := []struct {
		name  string
		build func(Config) (ctl.Controller, error)
		rows  []row
	}{
		{"journal", func(c Config) (ctl.Controller, error) { return NewJournal(c) }, append(common[:len(common):len(common)],
			row{"block index outside Home", append(words(0, 1, cfg.PhysBytes/mem.BlockSize), blockOf(1)...), 0, 0},
			row{"record truncated", append(words(0, 1, 0), 1, 2, 3), 0, 0})},
		{"shadow", func(c Config) (ctl.Controller, error) { return NewShadow(c) }, append(common[:len(common):len(common)],
			row{"page index outside Home", words(0, 1, cfg.PhysBytes/mem.PageSize, data+mem.PageSize), 0, 0},
			row{"slot outside the device", words(0, 1, 0, ^uint64(0)-8), 0, 0},
			row{"slot inside Home", words(0, 1, 1, 0), 0, 0})},
	}
	for _, scheme := range schemes {
		for _, row := range scheme.rows {
			t.Run(scheme.name+"/heap/"+row.name, func(t *testing.T) {
				c, err := scheme.build(testConfig())
				if err != nil {
					t.Fatal(err)
				}
				nvm, meta := metaOf(c)
				nvm.Poke(data, row.blob)
				h := commit.Header{BlobAddr: data, BlobLen: uint64(len(row.blob)), BlobSum: mem.Checksum(row.blob)}
				if row.addr != 0 {
					h.BlobAddr = row.addr
				}
				if row.n != 0 {
					h.BlobLen = row.n
				}
				rec := make([]byte, commit.RecordSize)
				commit.Baseline.EncodeHeader(rec, h)
				nvm.Poke(meta.HeaderAddr(0), rec)
				_, _, err = c.Recover()
				rep := c.LastRecovery()
				if !errors.Is(err, ctl.ErrUnrecoverable) || rep.Class != ctl.Unrecoverable {
					t.Fatalf("Recover = %v (report %+v), want a typed refusal", err, rep)
				}
			})
		}
	}
}

// appendJournal is the journal blob layout BeginCheckpoint writes: the CPU
// state, then one (block index, data) record per inline copy.
func appendJournal(blob, cpu []byte, copies []commit.Copy) []byte {
	blob = append(binary.LittleEndian.AppendUint64(blob, uint64(len(cpu))), cpu...)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(copies)))
	for _, c := range copies {
		blob = append(binary.LittleEndian.AppendUint64(blob, c.Dst/mem.BlockSize), c.Data...)
	}
	return blob
}

// appendShadow is the page-table blob layout flush writes: the CPU state,
// then one (page index, slot address) record per page copy.
func appendShadow(blob, cpu []byte, copies []commit.Copy) []byte {
	blob = append(binary.LittleEndian.AppendUint64(blob, uint64(len(cpu))), cpu...)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(copies)))
	for _, c := range copies {
		blob = binary.LittleEndian.AppendUint64(blob, c.Dst/mem.PageSize)
		blob = binary.LittleEndian.AppendUint64(blob, c.Src)
	}
	return blob
}

// committedBlob returns the blob of the newest generation a system
// committed: encoder output of the real commit path.
func committedBlob(t testing.TB, c ctl.Controller) []byte {
	now := c.WriteBlock(0, 0, blockOf(7))
	now = c.WriteBlock(now, 3*mem.PageSize, blockOf(8))
	c.BeginCheckpoint(now, []byte("cpu"))
	nvm, meta := metaOf(c)
	sc, _ := meta.Scan(nvm, 1<<40)
	if !sc.Found {
		t.Fatal("no committed generation")
	}
	return sc.BestBlob
}

// fuzzMeta is the layout the blob fuzzers check addresses against.
func fuzzMeta() *commit.Meta {
	return commit.NewMeta("test", commit.Baseline, testConfig().PhysBytes, 0, false, mem.NewStorage())
}

// FuzzDecodeJournal: the journal decoder never panics, rejects with an
// error, and round-trips everything it accepts.
func FuzzDecodeJournal(f *testing.F) {
	j, err := NewJournal(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committedBlob(f, j))
	f.Add(appendJournal(nil, nil, nil))
	for _, b := range [][]byte{nil, words(0xfffffffffffffff8, 0), words(1<<63 - 1), words(0, 1<<62)} {
		f.Add(b)
	}
	meta := fuzzMeta()
	f.Fuzz(func(t *testing.T, blob []byte) {
		cpu, copies, err := decodeJournal(blob, meta)
		if err != nil {
			return
		}
		enc := appendJournal(nil, cpu, copies)
		if !bytes.HasPrefix(blob, enc) {
			t.Fatalf("re-encoding differs from the accepted blob:\n got %x\nfrom %x", enc, blob)
		}
		if cpu2, copies2, err := decodeJournal(enc, meta); err != nil || !reflect.DeepEqual(cpu2, cpu) || !reflect.DeepEqual(copies2, copies) {
			t.Fatalf("round trip: (%q, %+v, %v), want (%q, %+v)", cpu2, copies2, err, cpu, copies)
		}
	})
}

// FuzzDecodeShadow: the page-table decoder never panics, rejects with an
// error, and round-trips everything it accepts.
func FuzzDecodeShadow(f *testing.F) {
	s, err := NewShadow(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committedBlob(f, s))
	f.Add(appendShadow(nil, nil, nil))
	for _, b := range [][]byte{nil, words(0xfffffffffffffff8, 0), words(1<<63 - 1), words(0, 1<<62)} {
		f.Add(b)
	}
	meta := fuzzMeta()
	f.Fuzz(func(t *testing.T, blob []byte) {
		cpu, copies, err := decodeShadow(blob, meta)
		if err != nil {
			return
		}
		enc := appendShadow(nil, cpu, copies)
		if !bytes.HasPrefix(blob, enc) {
			t.Fatalf("re-encoding differs from the accepted blob:\n got %x\nfrom %x", enc, blob)
		}
		if cpu2, copies2, err := decodeShadow(enc, meta); err != nil || !reflect.DeepEqual(cpu2, cpu) || !reflect.DeepEqual(copies2, copies) {
			t.Fatalf("round trip: (%q, %+v, %v), want (%q, %+v)", cpu2, copies2, err, cpu, copies)
		}
	})
}

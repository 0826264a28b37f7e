package core

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
)

// Metadata fault-injection: recovery must tolerate torn or corrupted
// commit records by falling back to the newest remaining valid one — the
// property the checksummed ping-pong headers exist for.

// blobAddr returns the address of generation seq's table-blob area.
func blobAddr(c *Controller, seq uint64) uint64 {
	addr, _ := c.meta.AreaSpan(seq)
	return addr
}

// corrupt flips a byte at the given NVM address.
func corrupt(c *Controller, addr uint64) {
	var b [1]byte
	c.nvm.Peek(addr, b[:])
	b[0] ^= 0xff
	c.nvm.Poke(addr, b[:])
}

func TestRecoveryToleratesCorruptNewestHeader(t *testing.T) {
	c := MustNew(testConfig())
	now := writeB(t, c, 0, 0, 1)
	now = checkpoint(c, now) // commit A (value 1)
	now = writeB(t, c, now, 0, 2)
	now = checkpoint(c, now) // commit B (value 2)
	c.Crash(now)
	// Corrupt the newest header (commit B is even/odd per seq parity; flip
	// a byte in both header slots' checksummed area one at a time and
	// check the fallback).
	corrupt(c, c.meta.HeaderAddr(1)+8) // seq field of the second header slot
	cpu, _, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	_ = cpu
	got, _ := readB(t, c, 0, 0)
	// One of the two commits survived; the value must be 1 or 2, never
	// garbage, and the system must be usable.
	if got != 1 && got != 2 {
		t.Fatalf("recovered garbage value %d", got)
	}
}

func TestRecoveryToleratesCorruptBlob(t *testing.T) {
	c := MustNew(testConfig())
	now := writeB(t, c, 0, 0, 1)
	now = checkpoint(c, now)
	now = writeB(t, c, now, 0, 2)
	now = checkpoint(c, now)
	blobAddrB := blobAddr(c, 1)
	c.Crash(now)
	// Corrupt the payload of the NEWER blob (commit seq 1 lives in area 1):
	// its checksum must fail and recovery must fall back to the older
	// commit (value 1), reporting the damaged generation it walked past.
	corrupt(c, blobAddrB+16)
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := readB(t, c, 0, 0)
	if got != 1 {
		t.Fatalf("recovered %d, want fallback to commit 0 (value 1)", got)
	}
	if r := c.LastRecovery(); r.Class != ctl.RecoveredFallback || r.FallbackDepth != 1 || r.Generation != 0 {
		t.Fatalf("recovery report = %+v, want fallback depth 1 to generation 0", r)
	}
}

func TestRecoveryRefusesWhenAllCommitsCorrupt(t *testing.T) {
	c := MustNew(testConfig())
	now := writeB(t, c, 0, 0, 1)
	now = checkpoint(c, now)
	blobAddrA := blobAddr(c, 0)
	now = writeB(t, c, now, 0, 2)
	now = checkpoint(c, now)
	blobAddrB := blobAddr(c, 1)
	c.Crash(now)
	// Both retained blobs corrupted: checkpoints provably existed, so a
	// silent cold start would lose committed data — recovery must refuse
	// with a typed unrecoverable verdict, never return garbage.
	corrupt(c, blobAddrA+16)
	corrupt(c, blobAddrB+16)
	cpu, _, err := c.Recover()
	if !errors.Is(err, ctl.ErrUnrecoverable) {
		t.Fatalf("Recover = (%v, %v), want ErrUnrecoverable", cpu, err)
	}
	if r := c.LastRecovery(); r.Class != ctl.Unrecoverable {
		t.Fatalf("recovery report = %+v, want class detected-unrecoverable", r)
	}
}

func TestRecoveryFallsBackExactlyOneCommit(t *testing.T) {
	c := MustNew(testConfig())
	now := writeB(t, c, 0, 0, 1)
	now = checkpoint(c, now) // commit seq 0 -> header slot 0
	now = writeB(t, c, now, 0, 2)
	now = checkpoint(c, now) // commit seq 1 -> header slot 1
	c.Crash(now)
	corrupt(c, c.meta.HeaderAddr(1)) // destroy the newest (seq 1) header magic
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := readB(t, c, 0, 0)
	if got != 1 {
		t.Fatalf("recovered %d, want fallback to commit 0 (value 1)", got)
	}
}

// TestRecoveryFallbackGenerations is the multi-generation fallback table
// for the ThyNVM scheme: with K retained generations, corrupting the
// newest commit's blob falls back exactly one generation; corrupting past
// the durable generation-safety floor — or every retained commit —
// refuses with a typed unrecoverable verdict, never a mismatched image.
func TestRecoveryFallbackGenerations(t *testing.T) {
	// build commits three generations (values 1, 2, 3 at block 0) under a
	// 4-deep rotation. Each epoch's store to block 0 overwrites the
	// ping-pong slot of the generation before last, raising the durable
	// floor to seq-1: after commit 2 the floor is 1, so one fallback step
	// is legal and two are not.
	const committed, floorGen = 3, 1
	build := func(t *testing.T) (*Controller, []uint64) {
		t.Helper()
		cfg := testConfig()
		cfg.Generations = 4
		c := MustNew(cfg)
		now := mem.Cycle(0)
		addrs := make([]uint64, committed)
		for gen := byte(0); gen < committed; gen++ {
			now = writeB(t, c, now, 0, gen+1)
			now = checkpoint(c, now)
			addrs[gen] = blobAddr(c, uint64(gen)) // Crash resets the area table
		}
		c.Crash(now + 1_000_000)
		return c, addrs
	}
	for k := 1; k <= committed; k++ {
		bestGen := committed - 1 - k
		wantRefusal := bestGen < floorGen
		t.Run(fmt.Sprintf("corrupt-newest-%d", k), func(t *testing.T) {
			c, addrs := build(t)
			for i := 0; i < k; i++ {
				corrupt(c, addrs[committed-1-i]+16)
			}
			cpu, _, err := c.Recover()
			rep := c.LastRecovery()
			if wantRefusal {
				if !errors.Is(err, ctl.ErrUnrecoverable) {
					t.Fatalf("corrupt newest %d of %d: Recover = (%q, %v), want ErrUnrecoverable", k, committed, cpu, err)
				}
				if rep.Class != ctl.Unrecoverable {
					t.Fatalf("corrupt newest %d of %d: report %+v, want detected-unrecoverable", k, committed, rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("corrupt newest %d of %d: Recover: %v", k, committed, err)
			}
			got, _ := readB(t, c, 0, 0)
			if got != byte(bestGen+1) {
				t.Fatalf("corrupt newest %d of %d: recovered value %d, want generation %d's value %d",
					k, committed, got, bestGen, bestGen+1)
			}
			if rep.Class != ctl.RecoveredFallback || rep.FallbackDepth != k || rep.Generation != uint64(bestGen) {
				t.Fatalf("corrupt newest %d of %d: report %+v, want fallback depth %d to generation %d",
					k, committed, rep, k, bestGen)
			}
		})
	}
	t.Run("clean", func(t *testing.T) {
		c, _ := build(t)
		if _, _, err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		got, _ := readB(t, c, 0, 0)
		if got != committed {
			t.Fatalf("clean recovery value %d, want %d", got, committed)
		}
		if rep := c.LastRecovery(); rep.Class != ctl.RecoveredClean || rep.FallbackDepth != 0 {
			t.Fatalf("clean recovery report %+v, want recovered-clean", rep)
		}
	})
}

func TestRecoveryAfterCrashDuringRecoveryWindow(t *testing.T) {
	// Crash, recover, then crash again immediately (before any new
	// commit): the consolidation writes of the first recovery must leave
	// a state the second recovery reproduces.
	c := MustNew(testConfig())
	now := mem.Cycle(0)
	for i := 0; i < 16; i++ {
		now = writeB(t, c, now, uint64(i)*mem.BlockSize, byte(i+1))
	}
	now = checkpoint(c, now)
	c.Crash(now)
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	c.Crash(1) // crash at cycle 1 of the recovered timeline
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got, _ := readB(t, c, 0, uint64(i)*mem.BlockSize)
		if got != byte(i+1) {
			t.Fatalf("block %d = %d after double recovery, want %d", i, got, i+1)
		}
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

// TestMalformedMetadataRefused feeds recovery metadata whose checksums hold
// but whose contents are impossible — what damaged or crafted media can
// hold. Each row runs on the NVM's heap-chunk storage and must end in a
// typed refusal, never a panic.
func TestMalformedMetadataRefused(t *testing.T) {
	cfg := testConfig()
	homeBlocks := cfg.PhysBytes / mem.BlockSize
	data := cfg.PhysBytes + mem.PageSize // first checkpoint-area address
	rows := []struct {
		name string
		blob []byte // written at the first checkpoint-area address
		addr uint64 // header's blob address, when not that one
		n    uint64 // header's blob length, when not len(blob)
	}{
		{"zero-length blob", nil, 0, 0},
		{"cpu length wraps negative", words(blobMagic, 1, 0xfffffffffffffff8, 0, 0), 0, 0},
		{"cpu length past blob", words(blobMagic, 1, 1<<63-1), 0, 0},
		{"blob length 1<<62", words(blobMagic), 0, 1 << 62},
		{"blob past the device", words(blobMagic), ^uint64(0) - 16, 0},
		{"block index outside Home", words(blobMagic, 1, 0, 1, homeBlocks, data+mem.PageSize, 0), 0, 0},
		{"block slot outside the device", words(blobMagic, 1, 0, 1, 0, ^uint64(0)-8, 0), 0, 0},
		{"page slot inside Home", words(blobMagic, 1, 0, 0, 1, 0, 0), 0, 0},
	}
	for _, row := range rows {
		t.Run("heap/"+row.name, func(t *testing.T) {
			c := MustNew(testConfig())
			c.nvm.Poke(data, row.blob)
			h := commit.Header{BlobAddr: data, BlobLen: uint64(len(row.blob)), BlobSum: mem.Checksum(row.blob)}
			if row.addr != 0 {
				h.BlobAddr = row.addr
			}
			if row.n != 0 {
				h.BlobLen = row.n
			}
			rec := make([]byte, commit.RecordSize)
			commit.ThyNVM.EncodeHeader(rec, h)
			c.nvm.Poke(c.meta.HeaderAddr(0), rec)
			_, _, err := c.Recover()
			if !errors.Is(err, ctl.ErrUnrecoverable) || c.LastRecovery().Class != ctl.Unrecoverable {
				t.Fatalf("Recover = %v (report %+v), want a typed refusal", err, c.LastRecovery())
			}
		})
	}
}

// FuzzParseTables: the table-blob decoder never panics, rejects with an
// error, and round-trips everything it accepts through the encoder the
// commit path uses.
func FuzzParseTables(f *testing.F) {
	cfg := testConfig()
	meta := commit.NewMeta("core", commit.ThyNVM, cfg.PhysBytes, 0, false, mem.NewStorage())
	data := meta.DataStart()
	f.Add(appendTables(nil, &tableImage{}))
	f.Add(appendTables(nil, &tableImage{
		epochID:  3,
		cpuState: []byte("cpu"),
		blocks:   []tableRec{{0, data}, {7, data + mem.BlockSize}},
		pages:    []tableRec{{2, data + mem.PageSize}},
	}))
	f.Add([]byte{})
	f.Add(words(blobMagic, 1, 0xfffffffffffffff8, 0, 0))
	f.Add(words(blobMagic, 1, 1<<63-1))
	f.Add(words(blobMagic, 1, 0, 1<<62))
	f.Fuzz(func(t *testing.T, blob []byte) {
		img, err := parseTables(blob, meta)
		if err != nil {
			if img != nil {
				t.Fatalf("rejected blob also returned an image")
			}
			return
		}
		enc := appendTables(nil, img)
		if !bytes.HasPrefix(blob, enc) {
			t.Fatalf("re-encoding differs from the accepted blob:\n got %x\nfrom %x", enc, blob)
		}
		again, err := parseTables(enc, meta)
		if err != nil || !reflect.DeepEqual(again, img) {
			t.Fatalf("round trip: (%+v, %v), want %+v", again, err, img)
		}
	})
}

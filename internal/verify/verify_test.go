package verify

import (
	"fmt"
	"strings"
	"testing"

	"thynvm/internal/core"
	"thynvm/internal/mem"
)

func testCtrl() *core.Controller {
	cfg := core.DefaultConfig()
	cfg.PhysBytes = 1 << 20
	cfg.BTTEntries = 256
	cfg.PTTEntries = 64
	cfg.EpochLen = mem.FromNs(50_000)
	return core.MustNew(cfg)
}

func blockOf(v byte) []byte {
	b := make([]byte, mem.BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

func TestRecordWriteCoversBlocks(t *testing.T) {
	o := New()
	o.RecordWrite(60, 10) // crosses a block boundary
	blocks := o.TouchedBlocks()
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 64 {
		t.Errorf("touched = %v, want [0 64]", blocks)
	}
}

func TestCaptureAndMatch(t *testing.T) {
	c := testCtrl()
	o := New()
	now := c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	id1 := o.Capture(c, "epoch1", now)
	now = c.WriteBlock(now, 0, blockOf(2))
	id2 := o.Capture(c, "epoch2", now)
	if id1 != 0 || id2 != 1 {
		t.Fatalf("ids %d,%d", id1, id2)
	}
	// Current state matches epoch2 (newest first).
	idx, label, ok := o.Match(c)
	if !ok || idx != 1 || label != "epoch2" {
		t.Errorf("match = %d %q %v", idx, label, ok)
	}
}

func TestMatchFailsOnForeignState(t *testing.T) {
	c := testCtrl()
	o := New()
	c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "a", 0)
	c.WriteBlock(0, 0, blockOf(99))
	if _, _, ok := o.Match(c); ok {
		t.Error("unsnapshotted state matched")
	}
	if diffs := o.Diff(c, 0); len(diffs) == 0 {
		t.Error("Diff reported no differences")
	}
}

func TestNewestCommittedBefore(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 100)
	o.Capture(c, "b", 200)
	o.Capture(c, "c", 300)
	cases := []struct {
		at   mem.Cycle
		want int
	}{{50, -1}, {100, 0}, {250, 1}, {1000, 2}}
	for _, tc := range cases {
		if got := o.NewestCommittedBefore(tc.at); got != tc.want {
			t.Errorf("NewestCommittedBefore(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestDiffBounds(t *testing.T) {
	o := New()
	if d := o.Diff(testCtrl(), 5); len(d) != 1 {
		t.Error("out-of-range Diff should report one diagnostic")
	}
}

// End-to-end: recovery after a crash matches exactly the snapshot of the
// newest committed epoch (here: the only one).
func TestOracleEndToEndWithRecovery(t *testing.T) {
	c := testCtrl()
	o := New()
	now := mem.Cycle(0)
	for i := 0; i < 32; i++ {
		addr := uint64(i) * mem.BlockSize
		now = c.WriteBlock(now, addr, blockOf(byte(i+1)))
		o.RecordWrite(addr, mem.BlockSize)
	}
	o.Capture(c, "boundary", now)
	resume := c.BeginCheckpoint(now, nil)
	now = c.DrainCheckpoint(resume)
	// Post-checkpoint writes that must be rolled back.
	now = c.WriteBlock(now, 0, blockOf(200))
	c.Crash(now)
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	idx, label, ok := o.Match(c)
	if !ok || label != "boundary" {
		t.Fatalf("recovered state did not match boundary snapshot (idx=%d ok=%v): %v",
			idx, ok, o.Diff(c, 0))
	}
}

// Regression (footprint-soundness hole): a block first written AFTER a
// snapshot's capture must be checked against that snapshot too — at the
// snapshot's instant it held its pre-workload (zero) content, so a stale
// non-zero value leaking through recovery is a violation Match must see.
func TestMatchChecksLateTouchedBlocks(t *testing.T) {
	c := testCtrl()
	o := New()
	now := c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "early", now)
	// Touch a new block only after the capture.
	late := uint64(4 * mem.BlockSize)
	c.WriteBlock(now, late, blockOf(7))
	o.RecordWrite(late, mem.BlockSize)
	// Current image: block 0 = 1 (matches "early"), late block = 7
	// (nonzero). Old oracle skipped the late block and claimed a match.
	if idx, label, ok := o.Match(c); ok {
		t.Fatalf("late-touched block leaked but Match reported %d %q", idx, label)
	}
	if diffs := o.Diff(c, 0); len(diffs) != 1 {
		t.Fatalf("Diff = %v, want exactly the late block", diffs)
	}
}

// Regression: Diff with a missing image entry used to index a nil slice.
func TestDiffLateTouchedBlockNoPanic(t *testing.T) {
	c := testCtrl()
	o := New()
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "a", 0)
	o.RecordWrite(64, mem.BlockSize)
	c.WriteBlock(0, 64, blockOf(9))
	diffs := o.Diff(c, 0) // must not panic
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
}

func TestZeroLengthWriteTouchesNothing(t *testing.T) {
	o := New()
	o.RecordWrite(128, 0)
	o.RecordWrite(128, -4)
	if got := o.TouchedBlocks(); len(got) != 0 {
		t.Errorf("zero-length write touched %v", got)
	}
}

func TestRecordWriteExactBlockSpans(t *testing.T) {
	o := New()
	o.RecordWrite(mem.BlockSize, mem.BlockSize) // exactly one aligned block
	o.RecordWrite(3*mem.BlockSize-1, 1)         // last byte of a block
	o.RecordWrite(4*mem.BlockSize-1, 2)         // spans the boundary by one byte
	want := []uint64{mem.BlockSize, 2 * mem.BlockSize, 3 * mem.BlockSize, 4 * mem.BlockSize}
	got := o.TouchedBlocks()
	if len(got) != len(want) {
		t.Fatalf("touched = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touched = %v, want %v", got, want)
		}
	}
}

func TestLoadBaseExpectedContent(t *testing.T) {
	c := testCtrl()
	o := New()
	init := blockOf(5)
	c.LoadHome(0, init)
	o.LoadBase(0, init)
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "pristine", 0)
	// Late-touched second block: expected content at "pristine" is zero.
	o.RecordWrite(64, mem.BlockSize)
	if idx, _, ok := o.Match(c); !ok || idx != 0 {
		t.Fatalf("pristine image should match (idx=%d ok=%v): %v", idx, ok, o.Diff(c, 0))
	}
}

func TestNewestCommittedBeforeTieAtCrashCycle(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 100)
	o.Capture(c, "b", 100) // two snapshots at the same cycle
	if got := o.NewestCommittedBefore(100); got != 1 {
		t.Errorf("tie at crash cycle: got %d, want newest (1)", got)
	}
	if got := o.NewestCommittedBefore(99); got != -1 {
		t.Errorf("pre-tie: got %d, want -1", got)
	}
}

func TestNewestCleanCommitted(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 100)
	o.Capture(c, "b", 200)
	o.Capture(c, "c", 300)
	o.SetCommitted(0, 150)
	o.SetCommitted(1, 250)
	o.MarkFaulted(1)
	// Snapshot 2 never committed.
	if got := o.NewestCleanCommitted(400); got != 0 {
		t.Errorf("faulted snapshot used as floor: got %d, want 0", got)
	}
	o.Solidify(1, 260)
	if got := o.NewestCleanCommitted(400); got != 1 {
		t.Errorf("solidified snapshot not a floor: got %d, want 1", got)
	}
	if got := o.NewestCleanCommitted(100); got != -1 {
		t.Errorf("commit-time boundary: got %d, want -1", got)
	}
}

func TestPruneAfter(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 1)
	o.Capture(c, "b", 2)
	o.Capture(c, "c", 3)
	o.PruneAfter(0)
	if n := len(o.Snapshots()); n != 1 {
		t.Fatalf("snapshots after PruneAfter(0): %d", n)
	}
	o.PruneAfter(-1)
	if n := len(o.Snapshots()); n != 0 {
		t.Fatalf("snapshots after PruneAfter(-1): %d", n)
	}
}

// Check: cold start with a durably committed snapshot is data loss.
func TestCheckColdStartLosesCommit(t *testing.T) {
	c := testCtrl()
	o := New()
	now := c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "a", now)
	o.SetCommitted(0, now+10)
	if _, err := o.Check(c, now+100, false); err == nil {
		t.Fatal("cold start despite committed snapshot not flagged")
	}
	// But a cold start before anything committed is fine if the image is
	// the pre-workload base.
	c2 := testCtrl()
	o2 := New()
	o2.RecordWrite(0, mem.BlockSize)
	o2.Capture(c2, "uncommitted", 50)
	if _, err := o2.Check(c2, 60, false); err != nil {
		t.Fatalf("clean cold start flagged: %v", err)
	}
	// Cold start with leaked writes is a violation.
	c2.WriteBlock(0, 0, blockOf(3))
	if _, err := o2.Check(c2, 60, false); err == nil {
		t.Fatal("cold start with dirty image not flagged")
	}
}

// Check end-to-end against a real controller: crash after a drained
// checkpoint must land exactly on it.
func TestCheckEndToEnd(t *testing.T) {
	c := testCtrl()
	o := New()
	now := mem.Cycle(0)
	for i := 0; i < 16; i++ {
		addr := uint64(i) * mem.BlockSize
		now = c.WriteBlock(now, addr, blockOf(byte(i+1)))
		o.RecordWrite(addr, mem.BlockSize)
	}
	o.Capture(c, "boundary", now)
	resume := c.BeginCheckpoint(now, nil)
	now = c.DrainCheckpoint(resume)
	o.SetCommitted(0, now)
	now = c.WriteBlock(now, 0, blockOf(200))
	crashAt := now
	c.Crash(crashAt)
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	idx, err := o.Check(c, crashAt, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("Check matched snapshot %d, want 0", idx)
	}
}

// The oracle lays each snapshot out in first-touch order. Blocks first
// touched in descending address order must still give an address-ordered
// Diff and TouchedBlocks, and every Match and Check verdict, error text
// included, of an oracle whose blocks were touched in ascending order.
func TestFirstTouchOrderKeepsAddressOrder(t *testing.T) {
	c := testCtrl()
	up, down := New(), New()
	now := mem.Cycle(0)
	write := func(i int, v byte) {
		now = c.WriteBlock(now, uint64(i)*mem.BlockSize, blockOf(v))
	}
	touch := func(lo, hi int) {
		for i := lo; i <= hi; i++ {
			up.RecordWrite(uint64(i)*mem.BlockSize, mem.BlockSize)
			down.RecordWrite(uint64(hi+lo-i)*mem.BlockSize, mem.BlockSize)
		}
	}
	both := func(f func(o *Oracle) string) {
		t.Helper()
		if u, d := f(up), f(down); u != d {
			t.Fatalf("ascending-touch oracle says %q, descending-touch one %q", u, d)
		}
	}
	// Cold start: nothing committed, two blocks leaked.
	for i := 7; i >= 4; i-- {
		write(i, byte(i+1))
	}
	touch(4, 7)
	both(func(o *Oracle) string { _, err := o.Check(c, now, false); return fmt.Sprint(err) })
	if _, err := down.Check(c, now, false); err == nil || !strings.Contains(err.Error(), "block 0x100:") {
		t.Fatalf("cold-start Check = %v, want the lowest leaked block, 0x100", err)
	}

	// Snapshot a holds blocks 4..7; blocks 0..3 are first touched after it.
	both(func(o *Oracle) string { return fmt.Sprint(o.Capture(c, "a", now)) })
	for i := 3; i >= 0; i-- {
		write(i, byte(i+11))
	}
	write(5, 50)
	touch(0, 3)
	both(func(o *Oracle) string { o.SetCommitted(0, now); return fmt.Sprint(o.Capture(c, "b", now)) })
	both(func(o *Oracle) string { o.SetCommitted(1, now); return fmt.Sprint(o.TouchedBlocks()) })
	both(func(o *Oracle) string { i, err := o.Check(c, now, true); return fmt.Sprint(i, err) })
	if i, err := down.Check(c, now, true); err != nil || i != 1 {
		t.Fatalf("Check = %d, %v, want snapshot 1", i, err)
	}

	// Damage three blocks: no snapshot matches, and the diff lists the
	// blocks in address order.
	write(6, 0xee)
	write(1, 0xee)
	write(3, 0xee)
	both(func(o *Oracle) string { i, err := o.Check(c, now, true); return fmt.Sprint(i, err) })
	both(func(o *Oracle) string { return fmt.Sprint(o.Diff(c, 1)) })
	if _, err := down.Check(c, now, true); err == nil {
		t.Fatal("Check accepted a damaged image")
	}
	if d := down.Diff(c, 1); len(d) != 3 || !strings.HasPrefix(d[0], "block 0x40:") ||
		!strings.HasPrefix(d[1], "block 0xc0:") || !strings.HasPrefix(d[2], "block 0x180:") {
		t.Fatalf("Diff = %v, want blocks 0x40, 0xc0, 0x180 in that order", d)
	}

	// Roll the image back to a: blocks touched after a read as zero again.
	for i := 0; i <= 3; i++ {
		write(i, 0)
	}
	write(5, 6)
	write(6, 7)
	both(func(o *Oracle) string { i, l, ok := o.Match(c); return fmt.Sprint(i, l, ok) })
	if i, _, ok := down.Match(c); !ok || i != 0 {
		t.Fatalf("Match = %d %v, want snapshot 0", i, ok)
	}
}

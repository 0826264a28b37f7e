// Package core implements ThyNVM, the paper's contribution: a memory
// controller for a hybrid DRAM+NVM system that provides software-transparent
// crash consistency through dual-scheme checkpointing.
//
// Sparse updates are checkpointed at cache-block granularity by *block
// remapping*: the working copy is written directly to NVM at a remapped
// address, so checkpointing it only requires persisting metadata (the Block
// Translation Table, BTT). Dense updates are checkpointed at page
// granularity by *page writeback*: hot pages are cached in DRAM during
// execution and written back to NVM during the checkpointing phase, tracked
// by the Page Translation Table (PTT). Execution of epoch N+1 overlaps the
// checkpointing of epoch N; three versions of data (W_active, C_last,
// C_penult) coexist so that a crash at any cycle recovers to the last
// committed epoch boundary.
package core

import (
	"fmt"

	"thynvm/internal/commit"
	"thynvm/internal/mem"
)

// Mode selects the checkpointing scheme, enabling the paper's Table 1
// ablation: each single-granularity/single-location option versus the
// dual-scheme design.
type Mode int

const (
	// ModeDual is ThyNVM proper: block remapping for sparse updates, page
	// writeback for dense updates, with cooperation and adaptive switching.
	ModeDual Mode = iota
	// ModeBlockRemap is Table 1 option ③: uniform cache-block granularity
	// with the working copy remapped in NVM. Short checkpoint latency,
	// large metadata overhead.
	ModeBlockRemap
	// ModePageWriteback is Table 1 option ②: uniform page granularity with
	// the working copy in DRAM, written back at checkpoint time. Small
	// metadata, long checkpoint latency.
	ModePageWriteback
	// ModeBlockWriteback is Table 1 option ①: cache-block granularity with
	// the working copy buffered in DRAM. Large metadata overhead and long
	// checkpoint latency (the inefficient corner).
	ModeBlockWriteback
	// ModePageRemap is Table 1 option ④: page granularity remapped in NVM.
	// The first store to a page each epoch must copy the whole page to a
	// new NVM location on the critical path (slow remapping).
	ModePageRemap
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeDual:
		return "ThyNVM(dual)"
	case ModeBlockRemap:
		return "block-remap"
	case ModePageWriteback:
		return "page-writeback"
	case ModeBlockWriteback:
		return "block-writeback"
	case ModePageRemap:
		return "page-remap"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes a ThyNVM controller. The zero value is not valid;
// use DefaultConfig as a starting point.
type Config struct {
	// PhysBytes is the size of the physical address space exposed to
	// software (the Home region of NVM backs all of it).
	PhysBytes uint64
	// BTTEntries and PTTEntries are the nominal table capacities (2048 and
	// 4096 in the paper's evaluation). Allocation beyond capacity spills
	// (the paper's virtualized-table fallback) and is counted in stats;
	// approaching capacity requests an early checkpoint.
	BTTEntries int
	PTTEntries int
	// EpochLen is the target execution-phase length in cycles (the paper
	// bounds epochs at 10 ms; simulations typically scale this down).
	EpochLen mem.Cycle
	// SwitchToPage is the per-epoch store count at or above which a page
	// switches to page writeback (22 in the paper). SwitchToBlock is the
	// count at or below which it switches back to block remapping (16).
	SwitchToPage  int
	SwitchToBlock int
	// DecayEpochs is how many consecutive idle epochs a table entry
	// survives before its data is consolidated to the Home region and the
	// entry freed.
	DecayEpochs int
	// Cooperation enables §3.4: while a page's previous checkpoint is
	// still draining, stores to it are absorbed at block granularity
	// instead of stalling. Disable for ablation.
	Cooperation bool
	// Mode selects the checkpointing scheme (see Mode).
	Mode Mode
	// WatermarkEntries is the table-allocation headroom below capacity at
	// which the controller requests an early checkpoint.
	WatermarkEntries int
	// Generations is the number of retained checkpoint generations K
	// (header slots + metadata blob areas). 0 means the classic ping-pong
	// pair (K=2). With K > 2, recovery walks backward past damaged
	// generations to the newest fully-intact one, bounded by the durable
	// generation-safety floor (see internal/commit).
	Generations int
	// Integrity enables NVM media integrity mode: per-block checksums
	// maintained on the persist path, verified reads, an idle-cycle scrub
	// walk, and a post-recovery scrub that turns silent media corruption
	// into a clean detected-unrecoverable refusal.
	Integrity bool
}

// DefaultConfig returns the paper's evaluated configuration (Table 2):
// 2048 BTT entries, 4096 PTT entries (16 MB of DRAM reach), 10 ms epochs.
// PhysBytes defaults to 64 MB, which comfortably holds the evaluation
// workloads; scale up as needed.
func DefaultConfig() Config {
	return Config{
		PhysBytes:        64 << 20,
		BTTEntries:       2048,
		PTTEntries:       4096,
		EpochLen:         mem.FromNs(10_000_000), // 10 ms
		SwitchToPage:     22,
		SwitchToBlock:    16,
		DecayEpochs:      2,
		Cooperation:      true,
		Mode:             ModeDual,
		WatermarkEntries: 128,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PhysBytes == 0 || c.PhysBytes%mem.PageSize != 0 {
		return fmt.Errorf("core: PhysBytes %d must be a positive multiple of the page size", c.PhysBytes)
	}
	if c.BTTEntries <= 0 || c.PTTEntries <= 0 {
		return fmt.Errorf("core: table capacities must be positive (BTT=%d PTT=%d)", c.BTTEntries, c.PTTEntries)
	}
	if c.EpochLen == 0 {
		return fmt.Errorf("core: EpochLen must be positive")
	}
	if c.SwitchToBlock > c.SwitchToPage {
		return fmt.Errorf("core: SwitchToBlock (%d) must not exceed SwitchToPage (%d)", c.SwitchToBlock, c.SwitchToPage)
	}
	if c.DecayEpochs < 1 {
		return fmt.Errorf("core: DecayEpochs must be at least 1")
	}
	if c.WatermarkEntries < mem.BlocksPerPage {
		return fmt.Errorf("core: WatermarkEntries %d must cover at least one page of blocks (%d)",
			c.WatermarkEntries, mem.BlocksPerPage)
	}
	if !commit.ValidGenerations(c.Generations) {
		return fmt.Errorf("core: Generations %d must be in [2,%d] (0 = default pair)",
			c.Generations, commit.MaxGenerations)
	}
	return nil
}

// PaperBTTEntryBits is the size of one BTT row per the paper's Figure 5:
// 42-bit block index + 2-bit version ID + 2-bit visible region ID + 1-bit
// checkpoint region ID + 6-bit store counter.
const PaperBTTEntryBits = 42 + 2 + 2 + 1 + 6

// PaperPTTEntryBits is the size of one PTT row per Figure 5 (36-bit page
// index plus the same control fields).
const PaperPTTEntryBits = 36 + 2 + 2 + 1 + 6

// MetadataBytes returns the hardware metadata storage (in the memory
// controller) implied by the configured table sizes, using the paper's
// per-entry field widths. The paper reports ~37 KB for 2048+4096 entries.
func (c Config) MetadataBytes() uint64 {
	bits := uint64(c.BTTEntries)*PaperBTTEntryBits + uint64(c.PTTEntries)*PaperPTTEntryBits
	return (bits + 7) / 8
}

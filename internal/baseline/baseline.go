// Package baseline implements the comparison systems of the ThyNVM
// evaluation (§5.1):
//
//   - Ideal DRAM — a DRAM-only main memory assumed to provide crash
//     consistency at no cost (the upper performance bound).
//   - Ideal NVM — an NVM-only main memory with the same free-consistency
//     assumption.
//   - Journaling — a hybrid system with a redo journal: updated blocks are
//     collected and coalesced in a DRAM buffer and, at the end of each
//     epoch, written to an NVM backup region and committed before being
//     applied in place (stop-the-world).
//   - Shadow paging — a hybrid copy-on-write system: pages are copied into
//     DRAM on first write; dirty pages are flushed to fresh NVM locations
//     at epoch boundaries or when the DRAM buffer fills (stop-the-world).
//
// All implement ctl.Controller, so the harness can run identical workloads
// over every system.
package baseline

import (
	"fmt"

	"thynvm/internal/commit"
	"thynvm/internal/mem"
)

// Config parameterizes the baseline systems.
type Config struct {
	// PhysBytes is the physical address space size.
	PhysBytes uint64
	// EpochLen is the checkpoint interval in cycles.
	EpochLen mem.Cycle
	// JournalEntries is the journaling dirty-block table capacity. The
	// paper sizes it as the combined BTT+PTT entry count (2048+4096).
	JournalEntries int
	// DRAMPages is the shadow-paging DRAM buffer capacity in pages (the
	// paper uses the same DRAM size as ThyNVM: 4096 pages = 16 MB).
	DRAMPages int
	// Generations is the number of retained checkpoint generations (commit
	// header slots) for the journaling and shadow baselines. 0 means the
	// classic ping-pong pair; values above 2 enable multi-generation
	// recovery fallback (and the durable generation-safety guard).
	Generations int
	// Integrity enables per-block checksums on the persistent device plus
	// post-recovery verification, the baseline half of the media-fault
	// model (ideal systems get the verification only — their premise is
	// free consistency, not free media).
	Integrity bool
}

// DefaultConfig mirrors the paper's evaluated configuration.
func DefaultConfig() Config {
	return Config{
		PhysBytes:      64 << 20,
		EpochLen:       mem.FromNs(10_000_000),
		JournalEntries: 2048 + 4096,
		DRAMPages:      4096,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PhysBytes == 0 || c.PhysBytes%mem.PageSize != 0 {
		return fmt.Errorf("baseline: PhysBytes %d must be a positive multiple of the page size", c.PhysBytes)
	}
	if c.EpochLen == 0 {
		return fmt.Errorf("baseline: EpochLen must be positive")
	}
	if c.JournalEntries <= 0 || c.DRAMPages <= 0 {
		return fmt.Errorf("baseline: JournalEntries and DRAMPages must be positive")
	}
	if !commit.ValidGenerations(c.Generations) {
		return fmt.Errorf("baseline: Generations %d must be 0 (default pair) or in [2, %d]", c.Generations, commit.MaxGenerations)
	}
	return nil
}

// Package thynvm is a software-transparent crash-consistency simulator for
// hybrid DRAM+NVM persistent memory, reproducing "ThyNVM: Enabling
// Software-Transparent Crash Consistency in Persistent Memory Systems"
// (MICRO-48, 2015).
//
// The package exposes five complete memory systems behind one interface —
// ThyNVM's dual-scheme checkpointing controller and the paper's four
// comparison points (Ideal DRAM, Ideal NVM, Journaling, Shadow paging) —
// together with a cycle-approximate machine model (3 GHz in-order core,
// three-level cache hierarchy, banked DRAM/NVM devices with row-buffer
// timing), workload generators, persistent key-value stores, crash
// injection, recovery, and a consistency-verification oracle.
//
// Quick start:
//
//	sys, err := thynvm.NewSystem(thynvm.SystemThyNVM, thynvm.DefaultOptions())
//	if err != nil { ... }
//	sys.Write(0x1000, []byte("durable"))
//	sys.Checkpoint()            // epoch boundary (normally automatic)
//	sys.Drain()                 // let the checkpoint commit
//	sys.Crash()                 // power failure
//	sys.Recover()               // roll back to the last committed epoch
//	buf := make([]byte, 7)
//	sys.Read(0x1000, buf)       // "durable"
//
// See EXPERIMENTS.md for the reproduction of every table and figure in the
// paper's evaluation, and cmd/thynvm-bench to regenerate them.
package thynvm

import (
	"fmt"
	"strings"
	"time"

	"thynvm/internal/baseline"
	"thynvm/internal/core"
	"thynvm/internal/ctl"
	"thynvm/internal/kv"
	"thynvm/internal/mem"
	"thynvm/internal/sim"
	"thynvm/internal/trace"
	"thynvm/internal/verify"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users nameable types.
type (
	// Cycle counts CPU cycles at the simulated 3 GHz clock.
	Cycle = mem.Cycle
	// Result summarizes one workload execution on one system.
	Result = sim.Result
	// Generator produces a deterministic memory-operation stream.
	Generator = trace.Generator
	// ControllerStats carries controller- and device-level counters.
	ControllerStats = ctl.Stats
	// KVStore is a persistent key-value store running on a System.
	KVStore = kv.Store
	// Oracle verifies that recovery reproduces a committed epoch image.
	Oracle = verify.Oracle
	// Machine is the underlying simulated machine.
	Machine = sim.Machine
	// Mode selects a ThyNVM checkpointing scheme (Table 1 ablations).
	Mode = core.Mode
	// RecoveryReport classifies the outcome of the most recent recovery
	// (clean, fallback to an older generation, or a refused unrecoverable
	// state). See Machine.LastRecovery.
	RecoveryReport = ctl.RecoveryReport
	// RecoveryClass is the recovery verdict taxonomy.
	RecoveryClass = ctl.RecoveryClass
)

// Recovery verdicts (see RecoveryClass).
const (
	RecoveredClean    = ctl.RecoveredClean
	RecoveredFallback = ctl.RecoveredFallback
	Unrecoverable     = ctl.Unrecoverable
)

// ErrUnrecoverable marks a recovery that refused to materialize a wrong
// image: no retained checkpoint generation survived intact (or the media
// under the recovered image failed verification). Test with errors.Is.
var ErrUnrecoverable = ctl.ErrUnrecoverable

// Checkpointing scheme modes (see core.Mode).
const (
	ModeDual           = core.ModeDual
	ModeBlockRemap     = core.ModeBlockRemap
	ModePageWriteback  = core.ModePageWriteback
	ModeBlockWriteback = core.ModeBlockWriteback
	ModePageRemap      = core.ModePageRemap
)

// NewOracle creates a consistency-verification oracle.
func NewOracle() *Oracle { return verify.New() }

// scaleThreshold scales a per-10ms-epoch store-count threshold to the
// configured epoch length, with a floor.
func scaleThreshold(per10ms int, epoch time.Duration, min int) int {
	v := int(float64(per10ms) * float64(epoch) / float64(10*time.Millisecond))
	if v < min {
		v = min
	}
	return v
}

// SystemKind names one of the five evaluated memory systems.
type SystemKind int

const (
	// SystemThyNVM is the paper's contribution: dual-scheme checkpointing.
	SystemThyNVM SystemKind = iota
	// SystemIdealDRAM is DRAM-only with free crash consistency.
	SystemIdealDRAM
	// SystemIdealNVM is NVM-only with free crash consistency.
	SystemIdealNVM
	// SystemJournal is the redo-journaling hybrid baseline.
	SystemJournal
	// SystemShadow is the shadow-paging (copy-on-write) hybrid baseline.
	SystemShadow
)

// AllSystems lists the five systems in the paper's legend order.
func AllSystems() []SystemKind {
	return []SystemKind{SystemIdealDRAM, SystemIdealNVM, SystemJournal, SystemShadow, SystemThyNVM}
}

// String names the system as in the paper's figures.
func (k SystemKind) String() string {
	switch k {
	case SystemThyNVM:
		return "ThyNVM"
	case SystemIdealDRAM:
		return "IdealDRAM"
	case SystemIdealNVM:
		return "IdealNVM"
	case SystemJournal:
		return "Journal"
	case SystemShadow:
		return "Shadow"
	}
	return fmt.Sprintf("SystemKind(%d)", int(k))
}

// ParseSystem resolves a system name (case-insensitive).
func ParseSystem(s string) (SystemKind, error) {
	switch strings.ToLower(s) {
	case "thynvm":
		return SystemThyNVM, nil
	case "idealdram", "ideal-dram", "dram":
		return SystemIdealDRAM, nil
	case "idealnvm", "ideal-nvm", "nvm":
		return SystemIdealNVM, nil
	case "journal", "journaling":
		return SystemJournal, nil
	case "shadow", "shadow-paging", "cow":
		return SystemShadow, nil
	}
	return 0, fmt.Errorf("thynvm: unknown system %q (thynvm|idealdram|idealnvm|journal|shadow)", s)
}

// Options configures a System. Zero values take defaults from
// DefaultOptions.
type Options struct {
	// PhysBytes is the physical address space size (default 64 MB).
	PhysBytes uint64
	// EpochLen is the checkpoint interval in simulated time (the paper
	// uses 10 ms; scaled-down experiments typically use less).
	EpochLen time.Duration
	// BTTEntries and PTTEntries size ThyNVM's translation tables
	// (defaults 2048 and 4096, per the paper).
	BTTEntries int
	PTTEntries int
	// Mode selects the checkpointing scheme (default ModeDual).
	Mode Mode
	// SwitchToPage and SwitchToBlock are the per-epoch store-count
	// thresholds for migrating a page between the two checkpointing
	// schemes. The paper's values (22 and 16) are calibrated for 10 ms
	// epochs; when left zero they are scaled linearly to EpochLen
	// (minimum 2 and 1), so scaled-down simulations keep the same
	// stores-per-unit-time migration behavior.
	SwitchToPage  int
	SwitchToBlock int
	// DisableCooperation turns off §3.4's scheme cooperation (ablation).
	DisableCooperation bool
	// NoCaches removes the CPU cache hierarchy (controller-level studies).
	NoCaches bool
	// Generations is the number of retained checkpoint generations for the
	// checkpointing systems (ThyNVM, Journal, Shadow). 0 means the classic
	// ping-pong pair; values in [2, 63] enable multi-generation recovery
	// fallback. Ignored by the ideal systems.
	Generations int
	// Integrity enables the end-to-end media-fault defenses: per-block
	// checksums on the NVM data region (maintained on the persist path,
	// verified by the idle-cycle scrub and at recovery) and the durable
	// generation-safety guard. Off by default — the integrity-off timing
	// and NVM images are byte-identical to previous releases.
	Integrity bool
}

// DefaultOptions mirrors the paper's evaluated configuration.
func DefaultOptions() Options {
	return Options{
		PhysBytes:  64 << 20,
		EpochLen:   10 * time.Millisecond,
		BTTEntries: 2048,
		PTTEntries: 4096,
		Mode:       ModeDual,
	}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions()
	if o.PhysBytes == 0 {
		o.PhysBytes = d.PhysBytes
	}
	if o.EpochLen == 0 {
		o.EpochLen = d.EpochLen
	}
	if o.BTTEntries == 0 {
		o.BTTEntries = d.BTTEntries
	}
	if o.PTTEntries == 0 {
		o.PTTEntries = d.PTTEntries
	}
}

// System is one simulated machine over one crash-consistency scheme. It
// embeds the Machine, so all execution, crash and recovery methods are
// available directly, plus convenience constructors for persistent
// key-value stores.
type System struct {
	*sim.Machine
	Kind SystemKind
	opts Options
	ctrl ctl.Controller
}

// NewSystem builds a machine of the given kind.
func NewSystem(kind SystemKind, opts Options) (*System, error) {
	opts.fillDefaults()
	epoch := mem.FromNs(uint64(opts.EpochLen.Nanoseconds()))
	var ctrl ctl.Controller
	var err error
	switch kind {
	case SystemThyNVM:
		cfg := core.DefaultConfig()
		cfg.PhysBytes = opts.PhysBytes
		cfg.EpochLen = epoch
		cfg.BTTEntries = opts.BTTEntries
		cfg.PTTEntries = opts.PTTEntries
		cfg.Mode = opts.Mode
		cfg.Cooperation = !opts.DisableCooperation
		cfg.SwitchToPage, cfg.SwitchToBlock = opts.SwitchToPage, opts.SwitchToBlock
		if cfg.SwitchToPage == 0 {
			cfg.SwitchToPage = scaleThreshold(22, opts.EpochLen, 10)
		}
		if cfg.SwitchToBlock == 0 {
			cfg.SwitchToBlock = scaleThreshold(16, opts.EpochLen, 7)
		}
		if cfg.SwitchToBlock > cfg.SwitchToPage {
			cfg.SwitchToBlock = cfg.SwitchToPage
		}
		cfg.Generations = opts.Generations
		cfg.Integrity = opts.Integrity
		ctrl, err = core.New(cfg)
	case SystemIdealDRAM, SystemIdealNVM, SystemJournal, SystemShadow:
		cfg := baseline.DefaultConfig()
		cfg.PhysBytes = opts.PhysBytes
		cfg.EpochLen = epoch
		cfg.JournalEntries = opts.BTTEntries + opts.PTTEntries
		cfg.DRAMPages = opts.PTTEntries
		cfg.Generations = opts.Generations
		cfg.Integrity = opts.Integrity
		switch kind {
		case SystemIdealDRAM:
			ctrl, err = baseline.NewIdealDRAM(cfg)
		case SystemIdealNVM:
			ctrl, err = baseline.NewIdealNVM(cfg)
		case SystemJournal:
			ctrl, err = baseline.NewJournal(cfg)
		default:
			ctrl, err = baseline.NewShadow(cfg)
		}
	default:
		return nil, fmt.Errorf("thynvm: unknown system kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return &System{
		Machine: sim.NewMachine(ctrl, !opts.NoCaches),
		Kind:    kind,
		opts:    opts,
		ctrl:    ctrl,
	}, nil
}

// MustNewSystem is NewSystem for known-good options.
func MustNewSystem(kind SystemKind, opts Options) *System {
	s, err := NewSystem(kind, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Options returns the options the system was built with.
func (s *System) Options() Options { return s.opts }

// NVMStorage exposes the persistent device's backing store for media-level
// operations — fault injection (InjectBitRot, InjectDeadChunks), integrity
// verification (VerifyRange).
func (s *System) NVMStorage() *mem.Storage { return s.ctrl.NVMStorage() }

// Close releases the system: its cache levels go back to the pool the next
// system's hierarchy reuses them from, then its controller's storage
// chunks to the pool the next system's devices take chunks from. The
// system must not be used afterwards; a second Close does nothing. It
// always returns nil.
func (s *System) Close() error {
	s.Caches().Release()
	s.ctrl.Release()
	return nil
}

// Crash models a power failure at the current cycle.
func (s *System) Crash() Cycle { return s.CrashNow() }

// Stats returns the controller's accumulated statistics.
func (s *System) Stats() ControllerStats { return s.ctrl.Stats() }

// Run executes a workload trace on this system and returns the result.
func (s *System) Run(g Generator) Result {
	return sim.RunTrace(s.Machine, g, s.Kind.String())
}

// NewHashTable creates a persistent hash-table KV store on this system's
// memory: the header at headerAddr, all other storage allocated from
// [arenaBase, arenaBase+arenaSize).
func (s *System) NewHashTable(headerAddr, arenaBase, arenaSize uint64, buckets uint64) (KVStore, *KVArena, error) {
	a, err := newArena(arenaBase, arenaSize)
	if err != nil {
		return nil, nil, err
	}
	st, err := kv.NewHashTable(s.Machine, a.arena, headerAddr, buckets)
	if err != nil {
		return nil, nil, err
	}
	return st, a, nil
}

// NewRBTree creates a persistent red-black-tree KV store on this system.
func (s *System) NewRBTree(headerAddr, arenaBase, arenaSize uint64) (KVStore, *KVArena, error) {
	a, err := newArena(arenaBase, arenaSize)
	if err != nil {
		return nil, nil, err
	}
	st, err := kv.NewRBTree(s.Machine, a.arena, headerAddr)
	if err != nil {
		return nil, nil, err
	}
	return st, a, nil
}

// OpenHashTable reattaches to a hash table after recovery, using a restored
// arena.
func (s *System) OpenHashTable(headerAddr uint64, a *KVArena) (KVStore, error) {
	return kv.OpenHashTable(s.Machine, a.arena, headerAddr)
}

// OpenRBTree reattaches to a red-black tree after recovery.
func (s *System) OpenRBTree(headerAddr uint64, a *KVArena) (KVStore, error) {
	return kv.OpenRBTree(s.Machine, a.arena, headerAddr)
}

// Workload constructors (the paper's micro-benchmarks and SPEC stand-ins).

// RandomWorkload randomly accesses a footprint-sized array (1:1 R/W).
func RandomWorkload(footprint uint64, ops int, seed int64) Generator {
	return trace.Random(footprint, ops, seed)
}

// StreamingWorkload sequentially sweeps a footprint-sized array (1:1 R/W).
func StreamingWorkload(footprint uint64, ops int, seed int64) Generator {
	return trace.Streaming(footprint, ops, seed)
}

// SlidingWorkload accesses a window that slides across the array (1:1 R/W).
func SlidingWorkload(footprint uint64, ops int, seed int64) Generator {
	return trace.Sliding(footprint, ops, seed)
}

// SPECWorkload builds the synthetic stand-in trace for one of the eight
// memory-intensive SPEC CPU2006 applications of Figure 11.
func SPECWorkload(name string, maxFootprint uint64, ops int, seed int64) (Generator, error) {
	return trace.SPEC(name, maxFootprint, ops, seed)
}

// SPECNames lists the available SPEC stand-ins.
func SPECNames() []string { return trace.SPECNames() }

package thynvm

import (
	"encoding/json"
	"fmt"
	"time"

	"thynvm/internal/kv"
	"thynvm/internal/mem"
	"thynvm/internal/pool"
)

// Scale controls the size of the reproduced experiments. The paper runs
// billions of instructions on gem5; the shapes it reports emerge at much
// smaller scales here, which keeps the full suite fast. EXPERIMENTS.md
// records the paper-vs-measured comparison at ScaleDefault.
type Scale struct {
	// MicroOps and MicroFootprint size the §5.2 micro-benchmarks.
	MicroOps       int
	MicroFootprint uint64
	// KVTx, KVPreload and KVKeys size the §5.3 storage benchmarks;
	// KVSizes are the request sizes swept in Figures 9 and 10.
	KVTx      int
	KVPreload int
	KVKeys    uint64
	KVSizes   []int
	// SPECOps and SPECFootprintCap size the Figure 11 traces.
	SPECOps          int
	SPECFootprintCap uint64
	// EpochLen is the checkpoint interval (paper: 10 ms at full scale).
	EpochLen time.Duration
	// PhysBytes is the simulated physical address space.
	PhysBytes uint64
	// BTTSweep are the BTT sizes of the Figure 12 sensitivity study.
	BTTSweep []int
	// Seed makes all workloads deterministic.
	Seed int64
	// Integrity enables per-block NVM checksums in every simulation of a
	// sweep, pricing the integrity machinery's maintenance writes into the
	// reported numbers. Off by default; the integrity-off tables are
	// byte-identical to builds without the feature.
	Integrity bool
	// Parallel is the number of simulations run concurrently during a
	// sweep. It is execution policy, not experiment size: every cell of a
	// sweep builds its own machine, generator and telemetry recorder, and
	// results are assembled in canonical order, so tables and JSON are
	// byte-identical for any value. 0 means runtime.GOMAXPROCS(0); 1
	// forces fully sequential in-line execution.
	Parallel int
}

// ScaleSmall completes in a few seconds; used by tests.
func ScaleSmall() Scale {
	return Scale{
		MicroOps:         4_000,
		MicroFootprint:   4 << 20,
		KVTx:             800,
		KVPreload:        500,
		KVKeys:           2_048,
		KVSizes:          []int{16, 256, 4096},
		SPECOps:          4_000,
		SPECFootprintCap: 4 << 20,
		EpochLen:         100 * time.Microsecond,
		PhysBytes:        64 << 20,
		BTTSweep:         []int{256, 1024, 4096},
		Seed:             42,
	}
}

// ScaleDefault is the reproduction scale used by cmd/thynvm-bench and
// EXPERIMENTS.md; it completes in minutes.
func ScaleDefault() Scale {
	return Scale{
		MicroOps:         60_000,
		MicroFootprint:   16 << 20,
		KVTx:             4_000,
		KVPreload:        8_000,
		KVKeys:           8_192,
		KVSizes:          []int{16, 64, 256, 1024, 4096},
		SPECOps:          40_000,
		SPECFootprintCap: 16 << 20,
		EpochLen:         1 * time.Millisecond,
		PhysBytes:        256 << 20,
		BTTSweep:         []int{256, 512, 1024, 2048, 4096, 8192},
		Seed:             42,
	}
}

func (sc Scale) options() Options {
	o := DefaultOptions()
	o.PhysBytes = sc.PhysBytes
	o.EpochLen = sc.EpochLen
	o.Integrity = sc.Integrity
	return o
}

// runMicroCell runs one micro-benchmark on one freshly built system.
func (sc Scale) runMicroCell(workload string, kind SystemKind, opts Options) (Result, error) {
	g, err := sc.micro(workload)
	if err != nil {
		return Result{}, err
	}
	sys, err := NewSystem(kind, opts)
	if err != nil {
		return Result{}, err
	}
	res := sys.Run(g)
	sys.Drain()
	return res, sys.Close()
}

func (sc Scale) micro(name string) (Generator, error) {
	switch name {
	case "Random":
		return RandomWorkload(sc.MicroFootprint, sc.MicroOps, sc.Seed), nil
	case "Streaming":
		return StreamingWorkload(sc.MicroFootprint, sc.MicroOps, sc.Seed), nil
	case "Sliding":
		return SlidingWorkload(sc.MicroFootprint, sc.MicroOps, sc.Seed), nil
	}
	return nil, fmt.Errorf("thynvm: unknown micro benchmark %q", name)
}

// MicroNames lists the §5.2 micro-benchmarks in paper order.
func MicroNames() []string { return []string{"Random", "Streaming", "Sliding"} }

// MicroResults carries the raw results of the micro-benchmark sweep, from
// which both Figure 7 and Figure 8 are derived.
type MicroResults struct {
	Scale   Scale
	Results map[string]map[SystemKind]Result // workload -> system -> result
}

// RunMicro executes every micro-benchmark on every system. The cells of
// the workload x system grid are independent simulations; they are fanned
// across sc.Parallel workers and reassembled in canonical order.
func RunMicro(sc Scale) (*MicroResults, error) {
	type cell struct {
		w string
		k SystemKind
	}
	var cells []cell
	for _, w := range MicroNames() {
		for _, k := range AllSystems() {
			cells = append(cells, cell{w, k})
		}
	}
	results, err := pool.Run(len(cells), sc.Parallel, func(i int) (Result, error) {
		return sc.runMicroCell(cells[i].w, cells[i].k, sc.options())
	})
	if err != nil {
		return nil, err
	}
	out := &MicroResults{Scale: sc, Results: map[string]map[SystemKind]Result{}}
	for i, c := range cells {
		if out.Results[c.w] == nil {
			out.Results[c.w] = map[SystemKind]Result{}
		}
		out.Results[c.w][c.k] = results[i]
	}
	return out, nil
}

// Fig7 renders Figure 7: execution time of the micro-benchmarks on each
// system, normalized to Ideal DRAM.
func (mr *MicroResults) Fig7() *Table {
	t := &Table{
		Title:  "Figure 7: Execution time of micro-benchmarks (normalized to Ideal DRAM)",
		Header: []string{"workload", "IdealDRAM", "IdealNVM", "Journal", "Shadow", "ThyNVM"},
	}
	for _, w := range MicroNames() {
		base := float64(mr.Results[w][SystemIdealDRAM].Cycles)
		row := []string{w}
		for _, k := range AllSystems() {
			row = append(row, fmt.Sprintf("%.3f", float64(mr.Results[w][k].Cycles)/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: ThyNVM outperforms Journal and Shadow on every pattern; within ~14% of Ideal DRAM on micro-benchmarks")
	return t
}

// Fig8 renders Figure 8: NVM write traffic by source and the percentage of
// execution time spent on checkpointing, for the consistency schemes.
func (mr *MicroResults) Fig8() *Table {
	t := &Table{
		Title:  "Figure 8: NVM write traffic (MB) by source and % exec time on checkpointing",
		Header: []string{"workload", "system", "CPU_MB", "Ckpt_MB", "Migr_MB", "Total_MB", "ckpt_time_%"},
	}
	for _, w := range MicroNames() {
		for _, k := range []SystemKind{SystemJournal, SystemShadow, SystemThyNVM} {
			r := mr.Results[w][k]
			t.Rows = append(t.Rows, []string{
				w, k.String(),
				fmt.Sprintf("%.1f", r.NVMWriteMBBy(mem.SrcCPU)),
				fmt.Sprintf("%.1f", r.NVMWriteMBBy(mem.SrcCheckpoint)),
				fmt.Sprintf("%.1f", r.NVMWriteMBBy(mem.SrcMigration)),
				fmt.Sprintf("%.1f", r.NVMWriteMB()),
				fmt.Sprintf("%.2f", r.PctCkpt*100),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: Journal/Shadow spend 18.9%/15.2% of time checkpointing; ThyNVM 2.5%")
	return t
}

// BenchEntry is one (workload, system) data point of the machine-readable
// benchmark output written by cmd/thynvm-bench. The json field names are
// the wire format; keep stable.
type BenchEntry struct {
	Workload   string  `json:"workload"`
	System     string  `json:"system"`
	Cycles     uint64  `json:"cycles"`
	IPC        float64 `json:"ipc"`
	CkptPct    float64 `json:"ckpt_pct"`
	NVMWriteMB float64 `json:"nvm_write_mb"`
}

// BenchJSON renders the micro-benchmark sweep as indented JSON in
// deterministic workload-then-system order (the BENCH_PR<N>.json format).
func (mr *MicroResults) BenchJSON(scale string) ([]byte, error) {
	entries := make([]BenchEntry, 0, len(MicroNames())*len(AllSystems()))
	for _, w := range MicroNames() {
		for _, k := range AllSystems() {
			r, ok := mr.Results[w][k]
			if !ok {
				continue
			}
			entries = append(entries, BenchEntry{
				Workload:   r.Workload,
				System:     r.System,
				Cycles:     uint64(r.Cycles),
				IPC:        r.IPC,
				CkptPct:    r.PctCkpt * 100,
				NVMWriteMB: r.NVMWriteMB(),
			})
		}
	}
	out := struct {
		Scale   string       `json:"scale"`
		Results []BenchEntry `json:"results"`
	}{Scale: scale, Results: entries}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// KVResult is one cell of the Figures 9/10 sweep.
type KVResult struct {
	Store      string
	ReqSize    int
	System     SystemKind
	Executed   uint64
	SimSeconds float64
	// ThroughputKTPS is transactions per simulated second / 1000 (Fig 9).
	ThroughputKTPS float64
	// WriteBandwidthMBs is write bandwidth in MB/s: DRAM writes for Ideal
	// DRAM, NVM writes otherwise (Fig 10).
	WriteBandwidthMBs float64
}

// KVResults carries the storage-benchmark sweep for Figures 9 and 10.
type KVResults struct {
	Scale   Scale
	Results []KVResult
}

// KVStoreNames lists the two §5.3 store types.
func KVStoreNames() []string { return []string{"hashtable", "rbtree"} }

const (
	kvHeaderAddr = 64
	kvArenaBase  = 4096
)

// RunKV executes the storage benchmarks: both store types, every request
// size, every system. Cells run concurrently (sc.Parallel workers); the
// result slice keeps the canonical store-size-system order.
func RunKV(sc Scale) (*KVResults, error) {
	type cell struct {
		store string
		size  int
		k     SystemKind
	}
	var cells []cell
	for _, storeName := range KVStoreNames() {
		for _, size := range sc.KVSizes {
			for _, k := range AllSystems() {
				cells = append(cells, cell{storeName, size, k})
			}
		}
	}
	results, err := pool.Run(len(cells), sc.Parallel, func(i int) (KVResult, error) {
		return runOneKV(sc, cells[i].store, cells[i].size, cells[i].k)
	})
	if err != nil {
		return nil, err
	}
	return &KVResults{Scale: sc, Results: results}, nil
}

func runOneKV(sc Scale, storeName string, size int, kind SystemKind) (KVResult, error) {
	sys, err := NewSystem(kind, sc.options())
	if err != nil {
		return KVResult{}, err
	}
	defer sys.Close()
	// The arena must hold preload+tx values plus nodes.
	arenaSize := uint64(sc.KVTx+sc.KVPreload)*(uint64(size)+128)*2 + (1 << 20)
	if arenaSize > sc.PhysBytes/2 {
		arenaSize = sc.PhysBytes / 2
	}
	var st KVStore
	var arena *KVArena
	if storeName == "hashtable" {
		st, arena, err = sys.NewHashTable(kvHeaderAddr, kvArenaBase, arenaSize, sc.KVKeys/2)
	} else {
		st, arena, err = sys.NewRBTree(kvHeaderAddr, kvArenaBase, arenaSize)
	}
	if err != nil {
		return KVResult{}, err
	}
	// Checkpoints persist the application's allocator state, as a real
	// persistent-memory app on ThyNVM would; they are taken at transaction
	// boundaries, where that state is consistent.
	sys.SetProgramState(arena.Serialize, func([]byte) error { return nil })
	sys.DisableAutoCheckpoint()
	pause := sys.CheckpointIfDue

	// Preload, then settle: drain the checkpoint/consolidation pipeline
	// and let hot pages finish migrating so the measured window reflects
	// steady state, not the bulk-load transient.
	if _, err := kv.RunMixPaused(st, kv.Mix{SearchPct: 0, InsertPct: 100, DeletePct: 0},
		sc.KVPreload, size, sc.KVKeys, sc.Seed, pause); err != nil {
		return KVResult{}, err
	}
	for i := 0; i < 8; i++ {
		sys.Checkpoint()
		sys.Drain()
	}
	sys.Controller().ResetStats()
	start := sys.Now()
	stats, err := kv.RunMixPaused(st, kv.DefaultMix, sc.KVTx, size, sc.KVKeys, sc.Seed+1, pause)
	if err != nil {
		return KVResult{}, err
	}
	sys.Drain()
	elapsed := (sys.Now() - start).Seconds()
	cst := sys.Stats()
	writeBytes := cst.NVM.BytesWritten
	if kind == SystemIdealDRAM {
		writeBytes = cst.DRAM.BytesWritten
	}
	return KVResult{
		Store:             storeName,
		ReqSize:           size,
		System:            kind,
		Executed:          stats.ExecutedOperations,
		SimSeconds:        elapsed,
		ThroughputKTPS:    float64(stats.ExecutedOperations) / elapsed / 1e3,
		WriteBandwidthMBs: float64(writeBytes) / elapsed / (1 << 20),
	}, nil
}

func (kr *KVResults) table(title, metric string, value func(KVResult) float64) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"store", "reqB", "IdealDRAM", "IdealNVM", "Journal", "Shadow", "ThyNVM"},
	}
	for _, storeName := range KVStoreNames() {
		for _, size := range kr.Scale.KVSizes {
			row := []string{storeName, fmt.Sprintf("%d", size)}
			for _, k := range AllSystems() {
				found := false
				for _, r := range kr.Results {
					if r.Store == storeName && r.ReqSize == size && r.System == k {
						row = append(row, fmt.Sprintf("%.1f", value(r)))
						found = true
						break
					}
				}
				if !found {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, metric)
	return t
}

// Fig9 renders Figure 9: transaction throughput (KTPS) vs request size.
func (kr *KVResults) Fig9() *Table {
	return kr.table("Figure 9: Transaction throughput (K transactions/s)",
		"paper: ThyNVM reaches ~95% of Ideal DRAM throughput and beats Journal and Shadow", func(r KVResult) float64 { return r.ThroughputKTPS })
}

// Fig10 renders Figure 10: write bandwidth consumption vs request size.
func (kr *KVResults) Fig10() *Table {
	return kr.table("Figure 10: Write bandwidth (MB/s; DRAM for IdealDRAM, NVM otherwise)",
		"paper: ThyNVM uses far less bandwidth than Shadow and approaches Journal", func(r KVResult) float64 { return r.WriteBandwidthMBs })
}

// RunFig11 runs the SPEC stand-ins on Ideal DRAM, Ideal NVM and ThyNVM and
// renders normalized IPC (Figure 11).
func RunFig11(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 11: SPEC CPU2006 stand-ins, IPC normalized to Ideal DRAM",
		Header: []string{"benchmark", "IdealDRAM", "IdealNVM", "ThyNVM"},
	}
	systems := []SystemKind{SystemIdealDRAM, SystemIdealNVM, SystemThyNVM}
	type cell struct {
		name string
		k    SystemKind
	}
	var cells []cell
	for _, name := range SPECNames() {
		for _, k := range systems {
			cells = append(cells, cell{name, k})
		}
	}
	ipcs, err := pool.Run(len(cells), sc.Parallel, func(i int) (float64, error) {
		c := cells[i]
		g, err := SPECWorkload(c.name, sc.SPECFootprintCap, sc.SPECOps, sc.Seed)
		if err != nil {
			return 0, err
		}
		sys, err := NewSystem(c.k, sc.options())
		if err != nil {
			return 0, err
		}
		res := sys.Run(g)
		sys.Drain()
		return res.IPC, sys.Close()
	})
	if err != nil {
		return nil, err
	}
	var sumNVM, sumThy float64
	for i := 0; i < len(cells); i += len(systems) {
		ipc := map[SystemKind]float64{}
		for j, k := range systems {
			ipc[k] = ipcs[i+j]
		}
		base := ipc[SystemIdealDRAM]
		t.Rows = append(t.Rows, []string{
			cells[i].name,
			"1.000",
			fmt.Sprintf("%.3f", ipc[SystemIdealNVM]/base),
			fmt.Sprintf("%.3f", ipc[SystemThyNVM]/base),
		})
		sumNVM += ipc[SystemIdealNVM] / base
		sumThy += ipc[SystemThyNVM] / base
	}
	n := float64(len(SPECNames()))
	t.Rows = append(t.Rows, []string{"gmean-ish(avg)", "1.000",
		fmt.Sprintf("%.3f", sumNVM/n), fmt.Sprintf("%.3f", sumThy/n)})
	t.Notes = append(t.Notes, "paper: ThyNVM within ~3.4% of Ideal DRAM, ~2.7% faster than Ideal NVM on average")
	return t, nil
}

// RunFig12 runs the BTT-size sensitivity study (Figure 12): hash-table KV
// store on ThyNVM across BTT sizes, reporting throughput and NVM write
// traffic.
func RunFig12(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 12: Effect of BTT size (hash-table KV store on ThyNVM)",
		Header: []string{"BTT_entries", "throughput_KTPS", "NVM_write_MB", "checkpoints", "table_spills"},
	}
	rows, err := pool.Run(len(sc.BTTSweep), sc.Parallel, func(i int) ([]string, error) {
		btt := sc.BTTSweep[i]
		opts := sc.options()
		opts.BTTEntries = btt
		sys, err := NewSystem(SystemThyNVM, opts)
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		// 1 KB requests: large enough that the working set exceeds the CPU
		// caches and the BTT actually comes under pressure.
		size := 1024
		arenaSize := uint64(sc.KVTx+sc.KVPreload)*(uint64(size)+128)*2 + (1 << 20)
		st, arena, err := sys.NewHashTable(kvHeaderAddr, kvArenaBase, arenaSize, sc.KVKeys/2)
		if err != nil {
			return nil, err
		}
		sys.SetProgramState(arena.Serialize, func([]byte) error { return nil })
		sys.DisableAutoCheckpoint()
		pause := sys.CheckpointIfDue
		if _, err := kv.RunMixPaused(st, kv.Mix{SearchPct: 0, InsertPct: 100, DeletePct: 0},
			sc.KVPreload, size, sc.KVKeys, sc.Seed, pause); err != nil {
			return nil, err
		}
		for i := 0; i < 8; i++ {
			sys.Checkpoint()
			sys.Drain()
		}
		sys.Controller().ResetStats()
		start := sys.Now()
		stats, err := kv.RunMixPaused(st, kv.DefaultMix, sc.KVTx, size, sc.KVKeys, sc.Seed+1, pause)
		if err != nil {
			return nil, err
		}
		sys.Drain()
		elapsed := (sys.Now() - start).Seconds()
		cst := sys.Stats()
		return []string{
			fmt.Sprintf("%d", btt),
			fmt.Sprintf("%.1f", float64(stats.ExecutedOperations)/elapsed/1e3),
			fmt.Sprintf("%.1f", float64(cst.NVM.BytesWritten)/(1<<20)),
			fmt.Sprintf("%d", cst.Commits),
			fmt.Sprintf("%d", cst.TableSpills),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "paper: larger BTT -> fewer forced checkpoints -> less NVM write traffic, higher throughput")
	return t, nil
}

// RunTable1 reproduces Table 1's trade-off space as a measured ablation:
// each single-granularity/single-location scheme versus the dual scheme,
// across the micro-benchmarks.
func RunTable1(sc Scale) (*Table, error) {
	modes := []Mode{ModeBlockWriteback, ModePageWriteback, ModeBlockRemap, ModePageRemap, ModeDual}
	t := &Table{
		Title: "Table 1 (measured): checkpointing granularity x working-copy location",
		Header: []string{"scheme", "avg_norm_exec", "peak_meta_entries", "ckpt_time_%",
			"NVM_write_MB"},
	}
	// One cell per simulation: the Ideal DRAM normalization references
	// come first (mode index -1), then every mode x workload run. All
	// cells fan out through one pool; aggregation happens afterwards in
	// canonical order.
	type cell struct {
		mode int // index into modes, or -1 for the Ideal DRAM reference
		w    string
	}
	var cells []cell
	for _, w := range MicroNames() {
		cells = append(cells, cell{-1, w})
	}
	for mi := range modes {
		for _, w := range MicroNames() {
			cells = append(cells, cell{mi, w})
		}
	}
	results, err := pool.Run(len(cells), sc.Parallel, func(i int) (Result, error) {
		c := cells[i]
		opts := sc.options()
		kind := SystemIdealDRAM
		if c.mode >= 0 {
			kind = SystemThyNVM
			opts.Mode = modes[c.mode]
		}
		return sc.runMicroCell(c.w, kind, opts)
	})
	if err != nil {
		return nil, err
	}
	baseCycles := map[string]float64{}
	for i, w := range MicroNames() {
		baseCycles[w] = float64(results[i].Cycles)
	}
	for mi, mode := range modes {
		var normSum, pct, mb float64
		var peak uint64
		for wi, w := range MicroNames() {
			res := results[len(MicroNames())*(1+mi)+wi]
			normSum += float64(res.Cycles) / baseCycles[w]
			pct += res.PctCkpt * 100
			mb += res.NVMWriteMB()
			if p := res.Ctrl.PeakBTTLive + res.Ctrl.PeakPTTLive; p > peak {
				peak = p
			}
		}
		n := float64(len(MicroNames()))
		t.Rows = append(t.Rows, []string{
			mode.String(),
			fmt.Sprintf("%.3f", normSum/n),
			fmt.Sprintf("%d", peak),
			fmt.Sprintf("%.2f", pct/n),
			fmt.Sprintf("%.1f", mb),
		})
	}
	t.Notes = append(t.Notes,
		"block granularity: large metadata; page writeback: long checkpoints; page remap: slow remapping on the critical path; dual: best of both")
	return t, nil
}

// Table2 prints the evaluated system configuration (paper Table 2).
func Table2() *Table {
	return &Table{
		Title:  "Table 2: System configuration",
		Header: []string{"component", "configuration"},
		Rows: [][]string{
			{"Processor", "3 GHz, in-order"},
			{"L1 I/D", "private 32KB, 8-way, 64B block; 4 cycles hit"},
			{"L2", "private 256KB, 8-way, 64B block; 12 cycles hit"},
			{"L3", "shared 2MB/core, 16-way, 64B block; 28 cycles hit"},
			{"DRAM", "DDR3-1600-like: 40 (80) ns row hit (miss)"},
			{"NVM", "40 (128/368) ns row hit (clean/dirty miss)"},
			{"BTT/PTT", "2048/4096 entries; 3 ns lookup; ~37 KB metadata"},
			{"Epoch", "10 ms at full scale (scaled in experiments)"},
		},
	}
}

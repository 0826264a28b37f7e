package main

import (
	"fmt"

	"thynvm"
	"thynvm/internal/alloc"
	"thynvm/internal/cache"
	"thynvm/internal/ctl"
	"thynvm/internal/kv"
	"thynvm/internal/mem"
)

// kvWorkload is the Fig. 9/10 cells at ScaleDefault for both stores on all
// five systems at 64 B and 4096 B requests. Building the system and store,
// the 8000-insert preload and the 8x checkpoint/drain settle are set-up;
// the 4000-transaction kv.DefaultMix window is timed, with checkpoints at
// transaction boundaries (CheckpointIfDue). A unit is one transaction,
// including its checkpoint pause.
type kvWorkload struct{}

func (kvWorkload) unit() string       { return "tx" }
func (kvWorkload) defaultSeed() int64 { return thynvm.ScaleDefault().Seed }

var kvSizes = []int{64, 4096}

// Store layout, as in thynvm's Fig. 9/10 sweep.
const (
	kvHeaderAddr = 64
	kvArenaBase  = 4096
)

// kvCell is one cell's digested output.
type kvCell struct {
	Store    string    `json:"store"`
	Size     int       `json:"size"`
	System   string    `json:"system"`
	Executed uint64    `json:"executed"`
	Cycles   mem.Cycle `json:"window_cycles"`
	Stats    ctl.Stats `json:"stats"`
}

func (kvWorkload) runPass(seed int64, rec *recorder, p *pass, lat *[]int64) error {
	var cells []kvCell
	for _, store := range thynvm.KVStoreNames() {
		for _, size := range kvSizes {
			for _, kind := range thynvm.AllSystems() {
				c, err := runKVCell(store, size, kind, seed, rec, p, lat)
				if err != nil {
					return fmt.Errorf("kv %s/%d/%s: %w", store, size, kind, err)
				}
				cells = append(cells, c)
			}
		}
	}
	d, err := digestOf(cells)
	p.digest = d
	return err
}

func runKVCell(store string, size int, kind thynvm.SystemKind, seed int64, rec *recorder, p *pass, lat *[]int64) (cell kvCell, err error) {
	sc := thynvm.ScaleDefault()
	t0 := nanotime()
	sys, m, err := buildMachine(kind, scaleOptions(sc), rec)
	if err != nil {
		return kvCell{}, err
	}
	defer func() {
		if cerr := sys.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	arenaSize := uint64(sc.KVTx+sc.KVPreload)*(uint64(size)+128)*2 + (1 << 20)
	if arenaSize > sc.PhysBytes/2 {
		arenaSize = sc.PhysBytes / 2
	}
	arena, err := alloc.New(kvArenaBase, arenaSize)
	if err != nil {
		return kvCell{}, err
	}
	var memory kv.Memory = m
	if rec != nil {
		memory = newMemSpy(m, rec)
	}
	var st kv.Store
	if store == "hashtable" {
		st, err = kv.NewHashTable(memory, arena, kvHeaderAddr, sc.KVKeys/2)
	} else {
		st, err = kv.NewRBTree(memory, arena, kvHeaderAddr)
	}
	if err != nil {
		return kvCell{}, err
	}
	checked := newCheckedStore(st, rec)
	m.SetProgramState(arena.Serialize, func([]byte) error { return nil })
	m.DisableAutoCheckpoint()
	insertOnly := kv.Mix{SearchPct: 0, InsertPct: 100, DeletePct: 0}
	t1 := nanotime()
	if _, err := kv.RunMixPaused(checked, insertOnly, sc.KVPreload, size, sc.KVKeys, seed, m.CheckpointIfDue); err != nil {
		return kvCell{}, err
	}
	t2 := nanotime()
	for i := 0; i < 8; i++ {
		m.Checkpoint()
		m.Drain()
	}
	t3 := nanotime()
	p.setupNs += t3 - t0
	p.counts["kv.preload_s"] += float64(t2-t1) / 1e9
	p.counts["kv.settle_s"] += float64(t3-t2) / 1e9
	brokenPreload := checked.bad

	m.Controller().ResetStats()
	start := m.Now()
	before := levelStats(m)
	stall0, ckpts0 := m.CheckpointStall(), m.CheckpointCalls()

	// The pause callback closes each transaction: it takes any due
	// checkpoint, then reads the clock once (the latency unit) and checks
	// the transaction against the store model.
	var failed int64
	var tx, pauseID, txID int
	if rec != nil {
		pauseID = rec.id("kv.pause", layerSim)
		txID = rec.id("kv.tx", layerNone)
	}
	w := startWindow()
	last := nanotime()
	pause := func() {
		if rec != nil {
			rec.begin(pauseID)
		}
		m.CheckpointIfDue()
		if rec != nil {
			rec.end()
			rec.end() // kv.tx
			rec.unit++
			rec.begin(txID)
		}
		if lat != nil {
			t := nanotime()
			*lat = append(*lat, t-last)
			last = t
		}
		if checked.bad || brokenPreload {
			failed++
			checked.bad = false
		}
		tx++
	}
	if rec != nil {
		rec.on = true
		rec.begin(txID)
	}
	stats, err := kv.RunMixPaused(checked, kv.DefaultMix, sc.KVTx, size, sc.KVKeys, seed+1, pause)
	if rec != nil {
		rec.drop() // the transaction opened after the last one
	}
	if err != nil {
		return kvCell{}, err
	}
	m.Drain()
	if rec != nil {
		rec.on = false
	}
	p.kindWindowNs[kindName(kind)] += w.stop(p)

	cst := m.Controller().Stats()
	if err := cst.CheckAccounting(); err != nil {
		fmt.Printf("kv %s/%d/%s: %v\n", store, size, kind, err)
		failed = int64(tx)
	}
	p.units += int64(tx)
	p.failed += failed
	cycles := m.Now() - start
	p.simCycles += uint64(cycles)
	p.nvmBytes += cst.NVM.BytesWritten
	after := levelStats(m)
	delta := make([]cache.LevelStats, len(after))
	for i := range after {
		delta[i] = cache.LevelStats{
			Hits:       after[i].Hits - before[i].Hits,
			Misses:     after[i].Misses - before[i].Misses,
			Writebacks: after[i].Writebacks - before[i].Writebacks,
			Flushed:    after[i].Flushed - before[i].Flushed,
		}
	}
	stall := m.CheckpointStall() - stall0 + cst.CkptStall
	addMachineCounts(p, delta, kind, cst, stall, m.CheckpointCalls()-ckpts0)
	return kvCell{
		Store: store, Size: size, System: kind.String(),
		Executed: stats.ExecutedOperations, Cycles: cycles, Stats: cst,
	}, nil
}

package main

import (
	"fmt"
	"strings"

	"thynvm"
	"thynvm/internal/cache"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/sim"
	"thynvm/internal/trace"
)

// microWorkload is the Fig. 7/8 grid: Random, Streaming and Sliding on all
// five systems at ScaleDefault (16 MB footprint, 8x the 2 MB L3; 1 ms
// epochs; 256 MB physical), caches starting empty. A unit is one simulated
// memory op; the latency unit is a 256-op batch of the generator stream.
type microWorkload struct{}

func (microWorkload) unit() string       { return "op" }
func (microWorkload) defaultSeed() int64 { return thynvm.ScaleDefault().Seed }

func microGen(pattern string, sc thynvm.Scale, seed int64) trace.Generator {
	switch pattern {
	case "Random":
		return thynvm.RandomWorkload(sc.MicroFootprint, sc.MicroOps, seed)
	case "Streaming":
		return thynvm.StreamingWorkload(sc.MicroFootprint, sc.MicroOps, seed)
	}
	return thynvm.SlidingWorkload(sc.MicroFootprint, sc.MicroOps, seed)
}

// scaleOptions are the system options thynvm's sweeps derive from a Scale.
func scaleOptions(sc thynvm.Scale) thynvm.Options {
	o := thynvm.DefaultOptions()
	o.PhysBytes = sc.PhysBytes
	o.EpochLen = sc.EpochLen
	return o
}

// kindName is a system's metric-name label.
func kindName(k thynvm.SystemKind) string { return strings.ToLower(k.String()) }

// buildMachine builds a system and a fresh machine over its controller,
// with the controller decorated when rec is non-nil. The system's own
// machine is built cacheless, since only the fresh machine runs, so each
// cell builds one cache hierarchy.
func buildMachine(kind thynvm.SystemKind, opts thynvm.Options, rec *recorder) (*thynvm.System, *sim.Machine, error) {
	opts.NoCaches = true
	sys, err := thynvm.NewSystem(kind, opts)
	if err != nil {
		return nil, nil, err
	}
	var c ctl.Controller = sys.Controller()
	if rec != nil {
		c = newCtlSpy(c, rec, kindName(kind))
	}
	return sys, sim.NewMachine(c, true), nil
}

func (microWorkload) runPass(seed int64, rec *recorder, p *pass, lat *[]int64) error {
	sc := thynvm.ScaleDefault()
	opts := scaleOptions(sc)
	var results []sim.Result
	var run int
	if rec != nil {
		run = rec.id("sim.run", layerCache)
	}
	for _, pattern := range thynvm.MicroNames() {
		for _, kind := range thynvm.AllSystems() {
			t0 := nanotime()
			sys, m, err := buildMachine(kind, opts, rec)
			if err != nil {
				return err
			}
			g := &batchGen{Generator: microGen(pattern, sc, seed), r: rec, lat: lat}
			if rec != nil {
				g.next = rec.id("trace.next", layerTrace)
			}
			p.setupNs += nanotime() - t0

			w := startWindow()
			if rec != nil {
				rec.on = true
				rec.begin(run)
			}
			res := sim.RunTrace(m, g, kind.String())
			if rec != nil {
				rec.end()
			}
			m.Drain()
			if rec != nil {
				rec.on = false
			}
			p.kindWindowNs[kindName(kind)] += w.stop(p)

			p.units += int64(res.Ops)
			if err := res.Ctrl.CheckAccounting(); err != nil {
				fmt.Printf("%s/%s: %v\n", pattern, kind, err)
				p.failed += int64(res.Ops)
			}
			results = append(results, res)
			p.simCycles += uint64(res.Cycles)
			p.nvmBytes += res.Ctrl.NVM.BytesWritten
			addMachineCounts(p, levelStats(m), kind, res.Ctrl, res.CkptStall, res.Checkpoints)
			if err := sys.Close(); err != nil {
				return err
			}
		}
	}
	d, err := digestOf(results)
	p.digest = d
	return err
}

// levelStats reads a machine's per-level cache counters.
func levelStats(m *sim.Machine) []cache.LevelStats {
	var out []cache.LevelStats
	for _, l := range m.Caches().Stats() {
		out = append(out, l.LevelStats)
	}
	return out
}

// addMachineCounts adds one cell's simulated counters to the pass: cache
// levels, devices and the controller. stall and ckpts are the cell's
// checkpoint stall cycles and checkpoint count.
func addMachineCounts(p *pass, levels []cache.LevelStats, kind thynvm.SystemKind, st ctl.Stats, stall mem.Cycle, ckpts uint64) {
	c := p.counts
	for i, l := range levels {
		lv := fmt.Sprintf("cache.l%d", i+1)
		c[lv+".hits"] += float64(l.Hits)
		c[lv+".misses"] += float64(l.Misses)
		c["cache.writebacks"] += float64(l.Writebacks)
		c["cache.flushed"] += float64(l.Flushed)
	}
	c["sim.ckpts"] += float64(ckpts)
	c["mem.nvm_reads"] += float64(st.NVM.Reads)
	c["mem.nvm_writes"] += float64(st.NVM.Writes)
	c["mem.nvm_row_hits"] += float64(st.NVM.RowHits)
	c["mem.nvm_row_misses"] += float64(st.NVM.RowMisses)
	c["mem.dram_reads"] += float64(st.DRAM.Reads)
	c["mem.dram_writes"] += float64(st.DRAM.Writes)
	c["mem.dram_row_hits"] += float64(st.DRAM.RowHits)
	c["mem.dram_row_misses"] += float64(st.DRAM.RowMisses)
	c["mem.nvm_ckpt_mb"] += float64(st.NVM.BytesBySource[mem.SrcCheckpoint]) / (1 << 20)
	c["mem.nvm_write_mb"] += float64(st.NVM.BytesWritten) / (1 << 20)
	switch kind {
	case thynvm.SystemThyNVM:
		c["core.commits"] += float64(st.Commits)
		c["core.ckpt_stall_mcycles"] += float64(stall) / 1e6
		c["core.migrations"] += float64(st.MigrationsIn + st.MigrationsOut)
		c["core.table_spills"] += float64(st.TableSpills)
	case thynvm.SystemJournal:
		c["baseline.journal.commits"] += float64(st.Commits)
	case thynvm.SystemShadow:
		c["baseline.shadow.commits"] += float64(st.Commits)
	}
}

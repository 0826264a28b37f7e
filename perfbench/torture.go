package main

import (
	"time"

	"thynvm"
	"thynvm/internal/torture"
)

// tortureWorkload is a crash-torture campaign over all five systems with
// the generator defaults (20-120 ops, 1 MiB physical, 64 KiB footprint,
// 50 us epochs, tears and crash-during-recovery cuts as generated), run as
// two halves from one seed: one plain, one with "media bitrot:0:24" and
// "gens 4". Generating the schedules is set-up; a unit is one torture.Run.
type tortureWorkload struct{}

func (tortureWorkload) unit() string       { return "schedule" }
func (tortureWorkload) defaultSeed() int64 { return 1 } // thynvm-torture's default -seed

// tortureSchedules is the schedule count per system in each half.
const tortureSchedules = 100

// newSystemReps is how many systems of each kind the traced run builds to
// time system construction outside the engine.
const newSystemReps = 20

func tortureConfigs(seed int64) (plain, media torture.GenConfig) {
	plain = torture.GenConfig{Seed: seed, Schedules: tortureSchedules}
	media = plain
	media.Gens = 4
	media.Media = &torture.MediaFault{Kind: "bitrot", Seed: 0, Count: 24}
	return plain, media
}

func (tortureWorkload) runPass(seed int64, rec *recorder, p *pass, lat *[]int64) error {
	plainCfg, mediaCfg := tortureConfigs(seed)
	t0 := nanotime()
	plain := torture.Generate(plainCfg)
	media := torture.Generate(mediaCfg)
	p.setupNs += nanotime() - t0
	p.counts["torture.generate_ms"] += float64(p.setupNs) / 1e6

	scheds := append(plain, media...)
	outs := make([]*torture.Outcome, len(scheds))
	if rec != nil {
		rec.on = true
	}
	w := startWindow()
	last := nanotime()
	for i, s := range scheds {
		if rec != nil {
			name := "torture.run." + s.System
			if s.Media != nil {
				name = "torture.run.media"
			}
			rec.unit = int64(i)
			rec.begin(rec.id(name, layerTorture))
		}
		o, err := torture.Run(s)
		if rec != nil {
			rec.end()
		}
		if lat != nil {
			t := nanotime()
			*lat = append(*lat, t-last)
			last = t
		}
		p.units++
		if err != nil || o.Violation != "" {
			p.failed++
		}
		if err != nil {
			o = &torture.Outcome{Violation: "error: " + err.Error()}
		}
		outs[i] = o
	}
	w.stop(p)
	if rec != nil {
		rec.on = false
		if err := timeNewSystem(rec, plain[0]); err != nil {
			return err
		}
	}

	c := p.counts
	for _, o := range outs {
		p.simCycles += uint64(o.FinalCycle)
		c["torture.crashes"] += float64(o.Crashes)
		c["torture.checkpoints"] += float64(o.Checkpoints)
		c["torture.matches"] += float64(o.Matches)
		c["torture.restarts"] += float64(o.Restarts)
		c["torture.tears"] += float64(o.TearsFired)
		c["torture.fallbacks"] += float64(o.Fallbacks)
		c["torture.unrecoverable"] += float64(o.Unrecoverable)
	}
	d, err := digestOf(outs)
	p.digest = d
	return err
}

// timeNewSystem builds every kind of system, outside the engine, with the
// options torture.Run derives from the plain schedule s (its physical size,
// epoch and table sizes; the ideal systems cacheless), recording one span
// per NewSystem plus Close.
func timeNewSystem(rec *recorder, s *torture.Schedule) error {
	rec.on = true
	defer func() { rec.on = false }()
	for _, kind := range thynvm.AllSystems() {
		opts := thynvm.Options{
			PhysBytes:  s.PhysBytes,
			EpochLen:   time.Duration(s.EpochNs) * time.Nanosecond,
			BTTEntries: s.BTT,
			PTTEntries: s.PTT,
			NoCaches:   kind == thynvm.SystemIdealDRAM || kind == thynvm.SystemIdealNVM,
		}
		id := rec.id("sim.new_system."+kindName(kind), layerNone)
		for i := 0; i < newSystemReps; i++ {
			rec.begin(id)
			sys, err := thynvm.NewSystem(kind, opts)
			if err == nil {
				err = sys.Close()
			}
			rec.end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

package thynvm

// Extension experiments beyond the paper's figures, for questions the text
// raises qualitatively:
//
//   - §6 "Explicit interface for persistence": ThyNVM can be configured to
//     checkpoint every n ms, trading recovery staleness for overhead.
//     RunEpochSweep measures that trade-off.
//   - §2.2 notes that journaling's "log replay increases the recovery time
//     on system failure". RunRecoveryLatency measures simulated recovery
//     latency across schemes.

import (
	"fmt"
	"time"

	"thynvm/internal/pool"
)

// RunEpochSweep measures how the epoch length (the configurable persistence
// guarantee) affects ThyNVM's overhead: checkpoint-time share, execution
// time relative to Ideal DRAM, and NVM write traffic, on the Sliding
// micro-benchmark.
func RunEpochSweep(sc Scale, epochs []time.Duration) (*Table, error) {
	if len(epochs) == 0 {
		epochs = []time.Duration{
			100 * time.Microsecond, 300 * time.Microsecond,
			1 * time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
		}
	}
	t := &Table{
		Title:  "Epoch-length sensitivity (Sliding workload on ThyNVM; §6's configurable persistence)",
		Header: []string{"epoch", "norm_exec_vs_DRAM", "ckpt_time_%", "NVM_write_MB", "commits"},
	}
	// Cell 0 is the Ideal DRAM reference (epoch-independent); cells 1..n
	// are the per-epoch ThyNVM runs. All fan out through the pool.
	type out struct {
		res     Result
		commits uint64
	}
	results, err := pool.Run(1+len(epochs), sc.Parallel, func(i int) (out, error) {
		opts := sc.options()
		kind := SystemIdealDRAM
		if i > 0 {
			kind = SystemThyNVM
			opts.EpochLen = epochs[i-1]
		}
		sys, err := NewSystem(kind, opts)
		if err != nil {
			return out{}, err
		}
		res := sys.Run(SlidingWorkload(sc.MicroFootprint, sc.MicroOps, sc.Seed))
		sys.Drain()
		return out{res, sys.Stats().Commits}, sys.Close()
	})
	if err != nil {
		return nil, err
	}
	ref := results[0].res
	for i, ep := range epochs {
		r := results[1+i]
		t.Rows = append(t.Rows, []string{
			ep.String(),
			fmt.Sprintf("%.3f", float64(r.res.Cycles)/float64(ref.Cycles)),
			fmt.Sprintf("%.2f", r.res.PctCkpt*100),
			fmt.Sprintf("%.1f", r.res.NVMWriteMB()),
			fmt.Sprintf("%d", r.commits),
		})
	}
	t.Notes = append(t.Notes,
		"shorter epochs bound data loss more tightly but pay more checkpointing overhead; the paper runs at 10 ms")
	return t, nil
}

// RunRecoveryLatency measures the simulated recovery latency of the real
// consistency schemes after identical workloads: how long from power-up
// until the software-visible memory image is consistent again. Journaling
// must replay its redo log; shadow paging and ThyNVM consolidate committed
// copies.
func RunRecoveryLatency(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Recovery latency after a crash (simulated time until a consistent image)",
		Header: []string{"system", "recovery_us", "recovered_ok"},
	}
	kinds := []SystemKind{SystemThyNVM, SystemJournal, SystemShadow}
	rows, err := pool.Run(len(kinds), sc.Parallel, func(i int) ([]string, error) {
		kind := kinds[i]
		sys, err := NewSystem(kind, sc.options())
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		oracle := NewOracle()
		sys.PreCheckpoint = func(m *Machine) {
			oracle.Capture(m.Controller(), "boundary", m.Now())
		}
		sys.Run(SlidingWorkload(sc.MicroFootprint, sc.MicroOps, sc.Seed))
		sys.Checkpoint()
		sys.Drain()
		sys.Crash()
		state, lat, err := sys.Controller().Recover()
		if err != nil {
			return nil, err
		}
		_, _, ok := oracle.Match(sys.Controller())
		return []string{
			kind.String(),
			fmt.Sprintf("%.1f", lat.Nanoseconds()/1e3),
			fmt.Sprintf("%v", ok && state != nil),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"ThyNVM restores from checkpointed tables; shadow paging must consolidate whole pages; "+
			"this journaling variant applies its log at commit time, so its recovery replays little "+
			"(the paper's §2.2 remark targets journals replayed only at recovery)")
	return t, nil
}

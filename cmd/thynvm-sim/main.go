// Command thynvm-sim runs one workload on one or more memory systems and
// prints the measured result and controller statistics.
//
// Usage:
//
//	thynvm-sim -system thynvm -workload Random -ops 50000 -footprint 16777216
//	thynvm-sim -system journal -workload lbm -ops 40000
//	thynvm-sim -system thynvm,journal,shadow -parallel 3 -workload Sliding
//	thynvm-sim -metrics-out metrics.json -trace-out trace.json -trace-format chrome
//
// -system accepts a comma-separated list; the same workload then runs on
// every listed system, fanned across -parallel workers (default:
// GOMAXPROCS). Each run gets its own machine, its own generator and — when
// telemetry is requested — its own recorder, and results are printed in
// the order the systems were listed, so output is identical for any
// -parallel value.
//
// With -metrics-out / -trace-out a telemetry recorder is attached per run:
// per-epoch time series and latency histograms go to the metrics file, the
// structured event log plus span/attribution records (analyzable with
// thynvm-prof) to the trace file (JSONL, or Chrome trace-event JSON
// loadable in Perfetto with -trace-format chrome; each run gets a distinct
// trace pid). When several systems are listed, the system name is inserted
// before the file extension (metrics.json -> metrics.thynvm.json). All
// telemetry is keyed on simulated cycles, so same-seed runs produce
// byte-identical files.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"thynvm"
	"thynvm/internal/mem"
	"thynvm/internal/obs"
	"thynvm/internal/pool"
	"thynvm/internal/trace"
)

// usageError marks errors that should exit with status 2 (bad invocation
// rather than a failed run).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// main only maps run's error to an exit status; all cleanup is deferred
// inside run, so -cpuprofile and the telemetry files are complete even on
// error paths (os.Exit would skip the defers).
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thynvm-sim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// runOutput is the outcome of one (workload, system) simulation.
type runOutput struct {
	res thynvm.Result
	st  thynvm.ControllerStats
	col *obs.Collector
}

func run() error {
	system := flag.String("system", "thynvm", "memory system(s), comma-separated: thynvm, idealdram, idealnvm, journal, shadow")
	workload := flag.String("workload", "Random", "workload: Random, Streaming, Sliding, or a SPEC stand-in (gcc, lbm, ...)")
	traceFile := flag.String("tracefile", "", "replay a text trace file instead of a generated workload (lines: 'R|W addr size [compute]')")
	ops := flag.Int("ops", 50_000, "memory operations to simulate")
	footprint := flag.Uint64("footprint", 16<<20, "workload footprint in bytes")
	phys := flag.Uint64("phys", 0, "physical address space in bytes (default: the paper's 64 MB; raise it for footprints beyond that — storage is sparse, so this can exceed RAM)")
	epoch := flag.Duration("epoch", 300*time.Microsecond, "checkpoint epoch length")
	seed := flag.Int64("seed", 42, "workload seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs when several systems are listed")
	metricsOut := flag.String("metrics-out", "", "write per-epoch time series + latency histograms (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the structured event log to this file")
	traceFormat := flag.String("trace-format", "jsonl", "event log format: jsonl or chrome (Perfetto-loadable trace events)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		return usagef("unknown -trace-format %q (jsonl|chrome)", *traceFormat)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var kinds []thynvm.SystemKind
	for _, name := range strings.Split(*system, ",") {
		kind, err := thynvm.ParseSystem(strings.TrimSpace(name))
		if err != nil {
			return usageError{err}
		}
		kinds = append(kinds, kind)
	}
	effPhys := thynvm.DefaultOptions().PhysBytes
	if *phys != 0 {
		effPhys = *phys
	}
	if *footprint > effPhys {
		return usagef("-footprint %d exceeds the physical space %d (raise -phys)", *footprint, effPhys)
	}

	// makeGen builds a fresh generator per run: generators are stateful,
	// so concurrent runs must not share one.
	makeGen := func() (thynvm.Generator, error) {
		if *traceFile != "" {
			f, err := os.Open(*traceFile)
			if err != nil {
				return nil, usageError{err}
			}
			defer f.Close()
			g, err := trace.ReadOps(*traceFile, f)
			if err != nil {
				return nil, usageError{err}
			}
			return g, nil
		}
		switch *workload {
		case "Random":
			return thynvm.RandomWorkload(*footprint, *ops, *seed), nil
		case "Streaming":
			return thynvm.StreamingWorkload(*footprint, *ops, *seed), nil
		case "Sliding":
			return thynvm.SlidingWorkload(*footprint, *ops, *seed), nil
		default:
			g, err := thynvm.SPECWorkload(*workload, *footprint, *ops, *seed)
			if err != nil {
				return nil, usageError{err}
			}
			return g, nil
		}
	}
	// Validate the workload/trace once up front so a bad name is a usage
	// error before any simulation starts.
	if _, err := makeGen(); err != nil {
		return err
	}

	collect := *metricsOut != "" || *traceOut != ""
	outs, err := pool.Run(len(kinds), *parallel, func(i int) (runOutput, error) {
		g, err := makeGen()
		if err != nil {
			return runOutput{}, err
		}
		opts := thynvm.DefaultOptions()
		opts.EpochLen = *epoch
		if *phys != 0 {
			opts.PhysBytes = *phys
		}
		sys, err := thynvm.NewSystem(kinds[i], opts)
		if err != nil {
			return runOutput{}, err
		}
		defer sys.Close()
		var out runOutput
		if collect {
			// One collector per run: telemetry never crosses runs.
			out.col = obs.NewCollector()
			sys.SetRecorder(out.col)
		}
		out.res = sys.Run(g)
		sys.Drain()
		out.st = sys.Stats()
		return out, nil
	})
	if err != nil {
		return err
	}

	for i, out := range outs {
		if i > 0 {
			fmt.Println()
		}
		if *traceOut != "" {
			path := perSystemPath(*traceOut, kinds[i], len(kinds) > 1)
			err := writeOut(path, func(w io.Writer) error {
				if *traceFormat == "chrome" {
					// Distinct pid per run so traces from one -parallel
					// invocation can be merged without interleaving.
					out.col.SetTraceIdentity(i+1, kinds[i].String())
					return out.col.WriteChromeTrace(w, mem.CyclesPerNs*1000)
				}
				if err := out.col.WriteJSONL(w); err != nil {
					return err
				}
				return out.col.WriteSpanJSONL(w)
			})
			if err != nil {
				return err
			}
		}
		if *metricsOut != "" {
			path := perSystemPath(*metricsOut, kinds[i], len(kinds) > 1)
			if err := writeOut(path, out.col.WriteMetricsJSON); err != nil {
				return err
			}
		}
		printRun(out, *footprint, *seed)
	}

	if *memProfile != "" {
		runtime.GC()
		return writeOut(*memProfile, pprof.WriteHeapProfile)
	}
	return nil
}

// perSystemPath inserts the system name before the file extension when
// several systems run in one invocation ("m.json" -> "m.thynvm.json").
func perSystemPath(path string, kind thynvm.SystemKind, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + strings.ToLower(kind.String()) + ext
}

func writeOut(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRun(out runOutput, footprint uint64, seed int64) {
	res, st := out.res, out.st
	fmt.Printf("workload   : %s (%d ops, %d B footprint, seed %d)\n", res.Workload, res.Ops, footprint, seed)
	fmt.Printf("system     : %s\n", res.System)
	fmt.Printf("exec time  : %d cycles (%.3f ms simulated)\n", uint64(res.Cycles), res.Seconds()*1e3)
	fmt.Printf("IPC        : %.3f  (%d instructions)\n", res.IPC, res.Instructions)
	fmt.Printf("ckpt stall : %d cycles (%.2f%% of exec time, %d checkpoints)\n",
		uint64(res.CkptStall), res.PctCkpt*100, res.Checkpoints)
	fmt.Printf("mem stall  : %d cycles\n", uint64(res.MemStall))
	fmt.Printf("NVM writes : %.2f MB  (CPU %.2f / checkpoint %.2f / migration %.2f)\n",
		res.NVMWriteMB(), res.NVMWriteMBBy(mem.SrcCPU),
		res.NVMWriteMBBy(mem.SrcCheckpoint), res.NVMWriteMBBy(mem.SrcMigration))
	fmt.Printf("NVM reads  : %.2f MB\n", float64(st.NVM.BytesRead)/(1<<20))
	fmt.Printf("DRAM write : %.2f MB\n", float64(st.DRAM.BytesWritten)/(1<<20))
	fmt.Printf("epochs     : %d begun, %d committed\n", st.Epochs, st.Commits)
	if st.MigrationsIn+st.MigrationsOut > 0 {
		fmt.Printf("migrations : %d to page-writeback, %d to block-remapping\n",
			st.MigrationsIn, st.MigrationsOut)
	}
	if st.PeakBTTLive+st.PeakPTTLive > 0 {
		fmt.Printf("table peak : BTT %d, PTT %d entries (%d spills)\n",
			st.PeakBTTLive, st.PeakPTTLive, st.TableSpills)
	}
}

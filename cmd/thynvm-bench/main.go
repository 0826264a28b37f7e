// Command thynvm-bench regenerates every table and figure of the ThyNVM
// paper's evaluation (MICRO-48, 2015) on the simulator.
//
// Usage:
//
//	thynvm-bench [-exp all|table1|table2|fig7|fig8|fig9|fig10|fig11|fig12]
//	             [-scale small|default] [-parallel N] [-csv]
//	             [-json-out BENCH_PR<N>.json]
//
// With -csv the tables are additionally emitted as CSV to stdout. Whenever
// the micro-benchmark sweep runs (-exp all, fig7 or fig8), its results can
// also be written machine-readable with -json-out (the repo convention is
// BENCH_PR<N>.json per PR; see README).
//
// -parallel fans the independent cells of each sweep across N workers
// (default: GOMAXPROCS). Results are assembled in canonical order, so the
// tables, CSV and JSON are byte-identical for every N.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"thynvm"
)

// usageError marks errors that should exit with status 2 (bad invocation
// rather than a failed run).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// main only maps run's error to an exit status. All cleanup lives in
// deferred calls inside run, so profiles and output files are flushed even
// when an experiment fails (os.Exit skips defers; returning does not).
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thynvm-bench:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, fig7..fig12, epochs, recovery")
	scaleName := flag.String("scale", "default", "experiment scale: small or default")
	integrity := flag.Bool("integrity", false, "enable per-block NVM checksums in every simulation, pricing integrity maintenance into the reported numbers")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations per sweep (1 = sequential; output is identical for any value)")
	csv := flag.Bool("csv", false, "also emit CSV")
	jsonOut := flag.String("json-out", "", "write micro-benchmark results as JSON to this file (convention: BENCH_PR<N>.json; empty to disable)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

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

	var sc thynvm.Scale
	switch *scaleName {
	case "small":
		sc = thynvm.ScaleSmall()
	case "default":
		sc = thynvm.ScaleDefault()
	default:
		return usagef("unknown scale %q", *scaleName)
	}
	sc.Parallel = *parallel
	sc.Integrity = *integrity

	want := func(name string) bool { return *exp == "all" || *exp == name }
	emit := func(t *thynvm.Table) error {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		if *csv {
			if err := t.CSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	// Progress and timing lines go to stderr: stdout carries only the
	// tables (and CSV), which are byte-identical for every -parallel value.
	timed := func(name string, f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	fmt.Printf("ThyNVM evaluation reproduction (scale=%s)\n%s\n\n",
		*scaleName, strings.Repeat("=", 60))
	fmt.Fprintf(os.Stderr, "[running with parallel=%d]\n", *parallel)
	if *integrity {
		fmt.Fprintln(os.Stderr, "[NVM block checksums enabled: tables include integrity maintenance overhead]")
	}

	if want("table2") {
		if err := emit(thynvm.Table2()); err != nil {
			return err
		}
	}
	if want("table1") {
		if err := timed("table1", func() error {
			t, err := thynvm.RunTable1(sc)
			if err != nil {
				return err
			}
			return emit(t)
		}); err != nil {
			return err
		}
	}
	if want("fig7") || want("fig8") {
		if err := timed("fig7+fig8", func() error {
			mr, err := thynvm.RunMicro(sc)
			if err != nil {
				return err
			}
			if want("fig7") {
				if err := emit(mr.Fig7()); err != nil {
					return err
				}
			}
			if want("fig8") {
				if err := emit(mr.Fig8()); err != nil {
					return err
				}
			}
			if *jsonOut != "" {
				data, err := mr.BenchJSON(*scaleName)
				if err != nil {
					return err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "[micro-benchmark results written to %s]\n", *jsonOut)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if want("fig9") || want("fig10") {
		if err := timed("fig9+fig10", func() error {
			kr, err := thynvm.RunKV(sc)
			if err != nil {
				return err
			}
			if want("fig9") {
				if err := emit(kr.Fig9()); err != nil {
					return err
				}
			}
			if want("fig10") {
				return emit(kr.Fig10())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for _, e := range []struct {
		name string
		f    func(thynvm.Scale) (*thynvm.Table, error)
	}{
		{"fig11", thynvm.RunFig11},
		{"fig12", thynvm.RunFig12},
		{"epochs", func(sc thynvm.Scale) (*thynvm.Table, error) { return thynvm.RunEpochSweep(sc, nil) }},
		{"recovery", thynvm.RunRecoveryLatency},
	} {
		if !want(e.name) {
			continue
		}
		e := e
		if err := timed(e.name, func() error {
			t, err := e.f(sc)
			if err != nil {
				return err
			}
			return emit(t)
		}); err != nil {
			return err
		}
	}

	if *memProfile != "" {
		runtime.GC()
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

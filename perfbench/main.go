// Command perfbench is the simulator's benchmark. It runs one workload per
// process — micro (the Fig. 7/8 grid), kv (the Fig. 9/10 cells) or torture
// (a crash-torture campaign) — in a closed loop for a fixed host-time
// budget, checks every simulated output against a digest, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload micro -seed 42 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// decorator beyond the cheap latency clocks. With -trace 1 the same budget
// is split between an untraced and a traced run; the metrics are the
// per-layer ones, from span decorators around the program's public
// boundaries (see README.md). -compare reads result lines saved from
// earlier runs and compares them against BENCHMARK.json's bounds.
//
// All simulation is sequential in one goroutine; every workload uses the
// heap NVM backend.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// pass is one complete execution of a workload's unit set: the micro grid,
// the kv cells or the torture campaign. Every pass of a seed is simulated
// identically, so its digest and counters repeat exactly.
type pass struct {
	setupNs  int64
	windowNs int64
	units    int64
	failed   int64
	digest   string
	rt       rtSnap  // runtime counter deltas over the timed window
	lat      []int64 // host time of each latency unit, ns (untraced passes)

	simCycles uint64
	nvmBytes  uint64

	// counts holds the workload's per-pass simulated counters and setup
	// parts, keyed by per-layer metric name.
	counts map[string]float64
	// kindWindowNs is window host time by system kind (traced passes).
	kindWindowNs map[string]int64
}

func newPass() *pass {
	return &pass{counts: map[string]float64{}, kindWindowNs: map[string]int64{}}
}

// window measures one timed segment of a pass: host time and runtime
// counters between start and stop.
type window struct {
	t0 int64
	r0 rtSnap
}

func startWindow() window { return window{r0: readRuntime(), t0: nanotime()} }

// stop closes the segment, charging it to p, and returns its length in ns.
func (w window) stop(p *pass) int64 {
	d := nanotime() - w.t0
	r := readRuntime().sub(w.r0)
	p.windowNs += d
	p.rt.add(r)
	return d
}

// workload is one of the benchmark's three workloads.
type workload interface {
	// unit names one latency/throughput unit ("op", "tx", "schedule").
	unit() string
	defaultSeed() int64
	// runPass executes one pass, appending each latency unit's host time
	// (ns) to lat when lat is non-nil. rec is nil for an untraced pass.
	runPass(seed int64, rec *recorder, p *pass, lat *[]int64) error
}

var workloads = map[string]workload{
	"micro":   microWorkload{},
	"kv":      kvWorkload{},
	"torture": tortureWorkload{},
}

func main() {
	var (
		name    = flag.String("workload", "", "micro | kv | torture")
		seed    = flag.Int64("seed", -1, "workload seed (default: micro 42, kv 42, torture 1)")
		seconds = flag.Float64("seconds", 10, "host-time budget of the measured passes")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out-dir", ".bench_build", "directory for the span sample")
		compare = flag.Bool("compare", false, "compare result files: -compare [-bench BENCHMARK.json] old new")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark definition used by -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare wants two result files")
			os.Exit(2)
		}
		if err := compareFiles(*bench, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload micro|kv|torture [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	if *seed < 0 {
		*seed = w.defaultSeed()
	}
	res, err := run(*name, w, *seed, *seconds, *traceOn == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minPasses keeps every per-pass median over several passes even when one
// pass outlasts the budget (a kv pass takes about 14 s): with four, the
// median averages the two middle passes.
const minPasses = 4

// measure runs passes until the budget is spent, and at least atLeast.
// Untraced passes (rec nil) collect their latency units.
func measure(w workload, seed int64, budgetNs int64, atLeast int, rec *recorder) ([]*pass, error) {
	var passes []*pass
	start := nanotime()
	for len(passes) < atLeast || nanotime()-start < budgetNs {
		p := newPass()
		lat := &p.lat
		if rec != nil {
			lat = nil
		}
		if err := w.runPass(seed, rec, p, lat); err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func run(name string, w workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	budget := int64(seconds * 1e9)
	fmt.Printf("workload %s seed %d gomaxprocs %d budget %.0fs trace %v\n", name, seed, runtime.GOMAXPROCS(0), seconds, traced)

	untracedBudget, untracedMin := budget, minPasses
	if traced {
		untracedBudget, untracedMin = budget/2, 1
	}
	plain, err := measure(w, seed, untracedBudget, untracedMin, nil)
	if err != nil {
		return nil, err
	}
	var tracedPasses []*pass
	var rec *recorder
	if traced {
		rec = newRecorder()
		if tracedPasses, err = measure(w, seed, budget/2, 1, rec); err != nil {
			return nil, err
		}
	}

	// Correctness: every pass repeats the first pass's digest, which must
	// match the committed reference on the default seed.
	correct := true
	ref, hasRef := referenceDigests[name]
	digest := plain[0].digest
	fmt.Printf("digest %s\n", digest)
	if seed == w.defaultSeed() && hasRef {
		if digest != ref {
			correct = false
			fmt.Printf("digest MISMATCH: reference for seed %d is %s\n", seed, ref)
		} else {
			fmt.Printf("digest matches the committed reference for seed %d\n", seed)
		}
	}
	var attempted, failed int64
	for i, p := range append(append([]*pass(nil), plain...), tracedPasses...) {
		if p.digest != digest {
			correct = false
			fmt.Printf("pass %d digest %s differs from pass 0\n", i, p.digest)
			p.failed = p.units
		}
		attempted += p.units
		failed += p.failed
	}
	if traced {
		fmt.Printf("traced digest %s (equal to untraced: %v)\n", tracedPasses[0].digest, tracedPasses[0].digest == digest)
	}
	if failed > 0 {
		correct = false
	}
	fmt.Printf("fail_frac %g (%d failed of %d %ss attempted)\n", float64(failed)/float64(attempted), failed, attempted, w.unit())

	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if traced {
		layerMetrics(w, plain, tracedPasses, rec, res.Metrics)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeSample(path); err != nil {
			return nil, err
		}
		fmt.Printf("span sample (%d spans) written to %s\n", len(rec.sample), path)
	} else {
		endToEnd(w, plain, res.Metrics)
	}
	printMetrics(res.Metrics)
	return res, nil
}

// endToEnd fills the end-to-end metrics from untraced passes. Per-pass
// quantities (set-up, throughput, allocation) are reported as the median
// over passes. Latency percentiles pool every pass's units: since the tail
// ladder stops at p99 and a pass has at least 1000 units, the percentile
// does not depend on how many passes fit in the budget.
func endToEnd(w workload, passes []*pass, m map[string]metricValue) {
	var setups, allocs, tputs []float64
	var lat []int64
	var units, windowNs int64
	for _, p := range passes {
		setups = append(setups, float64(p.setupNs)/1e9)
		allocs = append(allocs, float64(p.rt.allocBytes)/(1<<20))
		tputs = append(tputs, float64(p.units)/(float64(p.windowNs)/1e9))
		lat = append(lat, p.lat...)
		units += p.units
		windowNs += p.windowNs
	}
	first := passes[0]
	pct, v, beyond := tail(lat)
	m["setup_s"] = metricValue{median(setups), "s"}
	m["throughput"] = metricValue{median(tputs), "1/s"}
	m["lat_p50_us"] = metricValue{float64(p50(lat)) / 1e3, "us"}
	m["lat_tail_us"] = metricValue{float64(v) / 1e3, "us"}
	m["alloc_mb"] = metricValue{median(allocs), "MB"}
	m["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	m["sim_mcycles"] = metricValue{float64(first.simCycles) / 1e6, "Mcycles"}
	fmt.Printf("passes %d, %d %ss in %.3fs of timed window; window per pass:", len(passes), units, w.unit(), float64(windowNs)/1e9)
	for _, p := range passes {
		fmt.Printf(" %.3fs", float64(p.windowNs)/1e9)
	}
	fmt.Println()
	fmt.Printf("latency: %d samples (%d per pass); lat_tail_us is p%g, %d samples beyond it\n", len(lat), len(first.lat), pct, beyond)
	if first.nvmBytes > 0 {
		fmt.Printf("nvm_write_mb %.4f MB per pass (simulated)\n", float64(first.nvmBytes)/(1<<20))
	} else {
		fmt.Printf("nvm_write_mb n/a (the torture engine exposes no device counters)\n")
	}
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// Command thynvm-torture runs the deterministic crash-torture campaign:
// randomized schedules of writes, checkpoints and crashes — multi-crash
// sequences, crashes during recovery, torn metadata persists, adversarial
// crash placement in the checkpoint-overlap window — executed against the
// consistency oracle on any of the five simulated systems.
//
// Usage:
//
//	thynvm-torture -seed 42 -schedules 20                 # full grid, all systems
//	thynvm-torture -systems thynvm,journal -parallel 8    # subset, 8 workers
//	thynvm-torture -replay seed-file.seed                 # rerun one schedule
//	thynvm-torture -seed 7 -out failing.seed              # save first violation (shrunk)
//	thynvm-torture -media bitrot:0:24 -gens 4             # media-fault sweep
//	thynvm-torture -diff seed-file.seed                   # one schedule, all five systems
//	thynvm-torture -seed 42 -cpuprofile torture.prof      # CPU profile of the run
//
// -media stamps every schedule with a media-fault directive (kind:seed:count;
// a zero seed derives a per-schedule one): after each crash, that many
// bit-rot or dead-chunk faults land in the durable image before recovery.
// Systems run with block checksums on and must either recover to an exact
// snapshot (possibly falling back generations) or refuse cleanly — a
// recovered image matching no snapshot is the silent corruption the sweep
// exists to rule out.
//
// -diff replays one seed file on all five systems and reports how their
// per-crash verdict shapes (cold / clean / fallback:N / unrecoverable)
// compare. Disagreements are reported, not failed: commit timing legitimately
// differs across schemes; what -diff surfaces is one scheme silently
// recovering where another refuses.
//
// The campaign log on stdout is byte-identical for a given seed at any
// -parallel value, so CI can diff runs across worker counts. Exit status:
// 0 clean, 1 violations found (the first one is shrunk to a minimal
// reproducer and, with -out, written as a replayable seed), 2 bad usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"thynvm/internal/torture"
)

// usageError marks errors that should exit with status 2 (bad invocation
// rather than a found violation).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// violationsFound exits 1 without double-printing: the log already showed
// the violations.
var violationsFound = errors.New("violations found")

func main() {
	if err := run(); err != nil {
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintln(os.Stderr, "thynvm-torture:", err)
			os.Exit(2)
		}
		if !errors.Is(err, violationsFound) {
			fmt.Fprintln(os.Stderr, "thynvm-torture:", err)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		systems   = flag.String("systems", "", "comma-separated system subset (default: all five)")
		seed      = flag.Int64("seed", 1, "campaign seed")
		schedules = flag.Int("schedules", 8, "schedules per system")
		minOps    = flag.Int("min-ops", 20, "minimum ops per schedule")
		maxOps    = flag.Int("max-ops", 120, "maximum ops per schedule")
		parallel  = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS; log is identical at any value)")
		noShrink  = flag.Bool("no-shrink", false, "skip minimizing the first violation")
		replay    = flag.String("replay", "", "replay one seed file instead of a campaign")
		diff      = flag.String("diff", "", "replay one seed file on all five systems and report verdict-shape disagreements")
		out       = flag.String("out", "", "write the first violation's shrunk seed here")
		inject    = flag.String("inject", "", "inject a silent fault: target:nth:mode:arg (e.g. data:2:flip:5) — test-only bug the campaign must catch")
		media     = flag.String("media", "", "stamp every schedule with media faults: kind:seed:count (e.g. bitrot:0:24; seed 0 derives per-schedule seeds)")
		gens      = flag.Int("gens", 0, "retained checkpoint generations per schedule (0 = scheme default pair)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected arguments %v", flag.Args())}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *replay != "" {
		return replaySeed(*replay)
	}
	if *diff != "" {
		return diffSeed(*diff)
	}

	gen := torture.GenConfig{
		Seed:      *seed,
		Schedules: *schedules,
		MinOps:    *minOps,
		MaxOps:    *maxOps,
		Gens:      *gens,
	}
	if *media != "" {
		m, err := parseMedia(*media)
		if err != nil {
			return usageError{err}
		}
		gen.Media = m
	}
	if *systems != "" {
		gen.Systems = strings.Split(*systems, ",")
	}
	if *inject != "" {
		f, err := parseInject(*inject)
		if err != nil {
			return usageError{err}
		}
		gen.Inject = f
	}

	res, err := torture.RunCampaign(torture.CampaignConfig{
		Gen:      gen,
		Parallel: *parallel,
		Shrink:   !*noShrink,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Log)
	if len(res.Violations) == 0 {
		return nil
	}
	if *out != "" && res.Violations[0].Shrunk != nil {
		if err := os.WriteFile(*out, []byte(res.Violations[0].Shrunk.Encode()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote shrunk reproducer to %s\n", *out)
	}
	return violationsFound
}

func loadSeed(path string) (*torture.Schedule, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, usageError{err}
	}
	s, err := torture.Parse(string(text))
	if err != nil {
		return nil, usageError{err}
	}
	return s, nil
}

func verdictShape(o *torture.Outcome) string {
	if len(o.Verdicts) == 0 {
		return "(no crashes)"
	}
	return strings.Join(o.Verdicts, ",")
}

func replaySeed(path string) error {
	s, err := loadSeed(path)
	if err != nil {
		return err
	}
	o, err := torture.Run(s)
	if err != nil {
		return err
	}
	fmt.Printf("[%s] replay ckpts=%d crashes=%d matches=%d cold=%d restarts=%d tears=%d injected=%d clean=%d fallbacks=%d maxfb=%d unrec=%d media=%d cycles=%d\n",
		s.Label, o.Checkpoints, o.Crashes, o.Matches, o.ColdStarts, o.Restarts, o.TearsFired, o.Injected,
		o.Clean, o.Fallbacks, o.MaxFallback, o.Unrecoverable, o.MediaFaults, o.FinalCycle)
	fmt.Printf("[%s] verdicts: %s\n", s.Label, verdictShape(o))
	if o.Violation != "" {
		fmt.Printf("[%s] VIOLATION: %s\n", s.Label, o.Violation)
		return violationsFound
	}
	fmt.Printf("[%s] consistent\n", s.Label)
	return nil
}

// diffSeed replays one schedule on all five systems and reports how their
// per-crash verdict shapes compare. Shape disagreements are informational;
// violations on any system fail the run.
func diffSeed(path string) error {
	s, err := loadSeed(path)
	if err != nil {
		return err
	}
	shapes := make(map[string][]string) // verdict shape -> systems
	var order []string
	violated := false
	for _, sysName := range torture.AllSystemNames() {
		c := s.Clone()
		c.System = sysName
		c.Label = fmt.Sprintf("%s-%s", sysName, s.Label)
		o, err := torture.Run(c)
		if err != nil {
			return err
		}
		shape := verdictShape(o)
		fmt.Printf("[%-9s] %s\n", sysName, shape)
		if o.Violation != "" {
			fmt.Printf("[%-9s] VIOLATION: %s\n", sysName, o.Violation)
			violated = true
		}
		if _, seen := shapes[shape]; !seen {
			order = append(order, shape)
		}
		shapes[shape] = append(shapes[shape], sysName)
	}
	if len(shapes) == 1 {
		fmt.Println("verdict shapes agree across all five systems")
	} else {
		fmt.Printf("verdict shapes disagree (%d distinct):\n", len(shapes))
		for _, shape := range order {
			fmt.Printf("  %s: %s\n", strings.Join(shapes[shape], ","), shape)
		}
	}
	if violated {
		return violationsFound
	}
	return nil
}

// parseMedia decodes kind:seed:count by round-tripping through the seed
// format, keeping exactly one grammar for media specs.
func parseMedia(spec string) (*torture.MediaFault, error) {
	stub := fmt.Sprintf("thynvm-torture v1\nsystem thynvm\nphys 1048576\nepoch_ns 50000\nbtt 8\nptt 8\nfootprint 4096\nmedia %s\nend\n", spec)
	s, err := torture.Parse(stub)
	if err != nil {
		return nil, fmt.Errorf("bad -media %q: %v", spec, err)
	}
	return s.Media, nil
}

// parseInject decodes target:nth:mode:arg, e.g. "data:2:flip:5" or
// "table:1:trunc:16".
func parseInject(spec string) (*torture.SilentFault, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("bad -inject %q: want target:nth:mode:arg", spec)
	}
	// Reuse the seed-format parser by round-tripping through a schedule
	// fragment — keeps exactly one grammar for fault specs.
	stub := fmt.Sprintf("thynvm-torture v1\nsystem thynvm\nphys 1048576\nepoch_ns 50000\nbtt 8\nptt 8\nfootprint 4096\ninject %s %s %s:%s\nend\n",
		parts[0], parts[1], parts[2], parts[3])
	s, err := torture.Parse(stub)
	if err != nil {
		return nil, fmt.Errorf("bad -inject %q: %v", spec, err)
	}
	return s.Inject, nil
}

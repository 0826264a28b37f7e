// Command thynvm-prof analyzes the span/attribution records that
// thynvm-sim and thynvm-recover append to -trace-out JSONL files,
// answering "where did the cycles go" per scheme:
//
//   - a per-cause cycle-attribution table (the CheckAccounting-style
//     invariant: causes sum exactly to the run's cycles)
//   - the top stall causes, ranked by attributed cycles
//   - the per-epoch execution/checkpoint overlap ratio — how much of each
//     background drain window was hidden under the next epoch's execution
//     (the effect behind the paper's Fig. 7)
//   - a critical-path summary: busy cycles and utilization per track
//   - optional folded stacks for flamegraph tooling (-folded)
//
// Usage:
//
//	thynvm-prof trace.jsonl [more-traces...]
//	thynvm-prof -epochs trace.jsonl          # per-epoch table
//	thynvm-prof -folded out.folded trace.jsonl
//	thynvm-prof -check trace.jsonl           # CI: verify the invariant
//	thynvm-sim -trace-out /dev/stdout ... | thynvm-prof -
//
// Each input file is reported as one scheme (named after the file).
// -check exits non-zero unless every input has non-empty attribution whose
// rows sum exactly and tile the timeline. All output is deterministic:
// fixed enum order for causes, sorted folded stacks.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"thynvm/internal/obs"
)

// usageError marks errors that should exit with status 2 (bad invocation
// rather than a failed analysis).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thynvm-prof:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// Reverse lookups from the wire names back to the obs enums, built once
// from the same String() methods that produced the trace.
var (
	trackByName = map[string]obs.TrackID{}
	kindByName  = map[string]obs.SpanKind{}
	causeByName = map[string]obs.Cause{}
)

func init() {
	for t := obs.TrackID(0); t < obs.NumTracks; t++ {
		trackByName[t.String()] = t
	}
	for k := obs.SpanKind(0); k < obs.NumSpanKinds; k++ {
		kindByName[k.String()] = k
	}
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		causeByName[c.String()] = c
	}
}

// profile is one parsed trace file.
type profile struct {
	name   string
	events int // plain {"cycle":...} event-log lines
	spans  []obs.Span
	attrib obs.Attribution
	agg    [obs.NumTracks][obs.NumSpanKinds][obs.NumCauses]obs.AggCell
}

// Wire shapes of the three span-record types (see obs.WriteSpanJSONL).
type spanJSON struct {
	Track string `json:"track"`
	Kind  string `json:"kind"`
	Cause string `json:"cause"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Self  uint64 `json:"self"`
	Epoch uint64 `json:"epoch"`
	Arg   uint64 `json:"arg"`
	Depth uint8  `json:"depth"`
}

type attribJSON struct {
	Epoch  uint64            `json:"epoch"`
	Start  uint64            `json:"start"`
	End    uint64            `json:"end"`
	Cycles map[string]uint64 `json:"cycles"`
}

type aggJSON struct {
	Track string `json:"track"`
	Kind  string `json:"kind"`
	Cause string `json:"cause"`
	Count uint64 `json:"count"`
	Total uint64 `json:"total_cycles"`
	Self  uint64 `json:"self_cycles"`
}

type lineJSON struct {
	Cycle  *uint64     `json:"cycle"`
	Span   *spanJSON   `json:"span"`
	Attrib *attribJSON `json:"attrib"`
	Agg    *aggJSON    `json:"agg"`
}

func run() error {
	top := flag.Int("top", 5, "stall causes to rank")
	epochs := flag.Bool("epochs", false, "print the per-epoch attribution and overlap table")
	folded := flag.String("folded", "", "write folded flamegraph stacks to this file (\"-\" for stdout)")
	check := flag.Bool("check", false, "verify the accounting invariant and exit (for CI)")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		return usageError{errors.New("no trace files given (use \"-\" for stdin)")}
	}
	var profiles []*profile
	for _, path := range paths {
		p, err := load(path)
		if err != nil {
			return err
		}
		profiles = append(profiles, p)
	}

	if *check {
		for _, p := range profiles {
			if err := verify(p); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			fmt.Printf("%s: OK — %d epochs, %s cycles fully attributed, %d spans, %d events\n",
				p.name, len(p.attrib), commas(window(p)), len(p.spans), p.events)
		}
		return nil
	}

	for i, p := range profiles {
		if i > 0 {
			fmt.Println()
		}
		report(p, *top, *epochs)
	}

	if *folded != "" {
		out := os.Stdout
		if *folded != "-" {
			f, err := os.Create(*folded)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		bw := bufio.NewWriter(out)
		for _, p := range profiles {
			writeFolded(bw, p)
		}
		return bw.Flush()
	}
	return nil
}

// load parses one JSONL trace (event lines are counted, span records
// reconstructed). "-" reads stdin.
func load(path string) (*profile, error) {
	var r io.Reader
	name := "stdin"
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	p := &profile{name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec lineJSON
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		switch {
		case rec.Span != nil:
			s, err := rec.Span.decode()
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
			}
			p.spans = append(p.spans, s)
		case rec.Attrib != nil:
			row := obs.EpochAttrib{Epoch: rec.Attrib.Epoch, Start: rec.Attrib.Start, End: rec.Attrib.End}
			for name, v := range rec.Attrib.Cycles {
				c, ok := causeByName[name]
				if !ok {
					return nil, fmt.Errorf("%s:%d: unknown cause %q", path, lineNo, name)
				}
				row.Cycles[c] = v
			}
			p.attrib = append(p.attrib, row)
		case rec.Agg != nil:
			t, okT := trackByName[rec.Agg.Track]
			k, okK := kindByName[rec.Agg.Kind]
			c, okC := causeByName[rec.Agg.Cause]
			if !okT || !okK || !okC {
				return nil, fmt.Errorf("%s:%d: unknown track/kind/cause %q/%q/%q",
					path, lineNo, rec.Agg.Track, rec.Agg.Kind, rec.Agg.Cause)
			}
			p.agg[t][k][c] = obs.AggCell{Count: rec.Agg.Count, Total: rec.Agg.Total, Self: rec.Agg.Self}
		case rec.Cycle != nil:
			p.events++
		default:
			return nil, fmt.Errorf("%s:%d: unrecognized record", path, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func (s *spanJSON) decode() (obs.Span, error) {
	t, okT := trackByName[s.Track]
	k, okK := kindByName[s.Kind]
	c, okC := causeByName[s.Cause]
	if !okT || !okK || !okC {
		return obs.Span{}, fmt.Errorf("unknown track/kind/cause %q/%q/%q", s.Track, s.Kind, s.Cause)
	}
	return obs.Span{
		Start: s.Start, End: s.End, Self: s.Self, Epoch: s.Epoch, Arg: s.Arg,
		Track: t, Kind: k, Cause: c, Depth: s.Depth,
	}, nil
}

// verify re-checks the accounting invariant on the parsed rows: non-empty,
// each row's causes sum exactly to its window, and rows tile the timeline.
func verify(p *profile) error {
	if len(p.attrib) == 0 {
		return errors.New("no attribution rows in trace (telemetry detached, or pre-span trace?)")
	}
	return p.attrib.Check()
}

// window is the total attributed timeline in cycles.
func window(p *profile) uint64 {
	if len(p.attrib) == 0 {
		return 0
	}
	return p.attrib[len(p.attrib)-1].End - p.attrib[0].Start
}

func report(p *profile, top int, epochs bool) {
	fmt.Printf("== %s ==\n", p.name)
	w := window(p)
	fmt.Printf("window          : %s cycles over %d closed epochs (%d spans, %d events)\n",
		commas(w), len(p.attrib), len(p.spans), p.events)
	if err := verify(p); err != nil {
		fmt.Printf("ACCOUNTING BROKEN: %v\n", err)
		return
	}

	byCause := p.attrib.Sum()
	fmt.Println("cycle attribution (CPU, exact):")
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		if byCause[c] == 0 {
			continue
		}
		fmt.Printf("  %-16s %14s  %5.1f%%\n", c.String(), commas(byCause[c]), pct(byCause[c], w))
	}

	// Top stall causes: everything the CPU did other than execute.
	type ranked struct {
		cause  obs.Cause
		cycles uint64
	}
	var stalls []ranked
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		if c != obs.CauseExec && byCause[c] > 0 {
			stalls = append(stalls, ranked{c, byCause[c]})
		}
	}
	sort.SliceStable(stalls, func(i, j int) bool { return stalls[i].cycles > stalls[j].cycles })
	if len(stalls) > top {
		stalls = stalls[:top]
	}
	if len(stalls) == 0 {
		fmt.Println("top stall causes: none — every cycle executed")
	} else {
		fmt.Println("top stall causes:")
		for i, s := range stalls {
			fmt.Printf("  %d. %-14s %14s  %5.1f%%\n", i+1, s.cause.String(), commas(s.cycles), pct(s.cycles, w))
		}
	}

	reportOverlap(p, epochs)
	reportTracks(p, w)
}

// reportOverlap measures, per background drain window (TrackCkpt
// SpanCkptDrain, Epoch=N), how much of it ran after the CPU resumed — i.e.
// checkpointing hidden under the next epoch's execution. Fully-overlapped
// drains are the paper's Fig. 7 story.
func reportOverlap(p *profile, epochs bool) {
	rowEnd := map[uint64]uint64{}
	for _, r := range p.attrib {
		rowEnd[r.Epoch] = r.End
	}
	var drains, totalDrain, totalHidden uint64
	type perEpoch struct {
		epoch, total, hidden uint64
	}
	var rows []perEpoch
	for _, s := range p.spans {
		if s.Track != obs.TrackCkpt || s.Kind != obs.SpanCkptDrain {
			continue
		}
		total := s.End - s.Start
		hidden := uint64(0)
		if end, ok := rowEnd[s.Epoch]; ok && s.End > end {
			hidden = s.End - end
			if hidden > total {
				hidden = total
			}
		}
		drains++
		totalDrain += total
		totalHidden += hidden
		rows = append(rows, perEpoch{s.Epoch, total, hidden})
	}
	if drains == 0 {
		fmt.Println("execution/checkpoint overlap: no background drain windows")
		return
	}
	fmt.Printf("execution/checkpoint overlap: %d drains, %s drain cycles, %s (%.1f%%) hidden under execution\n",
		drains, commas(totalDrain), commas(totalHidden), pct(totalHidden, totalDrain))
	if epochs {
		fmt.Println("  epoch      drain cycles    hidden cycles   overlap")
		sort.Slice(rows, func(i, j int) bool { return rows[i].epoch < rows[j].epoch })
		for _, r := range rows {
			fmt.Printf("  %5d  %14s  %14s   %5.1f%%\n", r.epoch, commas(r.total), commas(r.hidden), pct(r.hidden, r.total))
		}
	}
}

// reportTracks prints span self-cycles per track. Summing self times over
// a track's aggregate cells telescopes to the total of its depth-0 spans —
// no double-counted nesting. On the CPU and ckpt tracks that is wall busy
// time; device and cache tracks accumulate per-request windows, which
// overlap execution and each other, so deep queues push them past 100%.
func reportTracks(p *profile, w uint64) {
	fmt.Println("span self-cycles by track (device/cache windows overlap; >100% = deep queues):")
	for t := obs.TrackID(0); t < obs.NumTracks; t++ {
		var busy, spans uint64
		for k := obs.SpanKind(0); k < obs.NumSpanKinds; k++ {
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				busy += p.agg[t][k][c].Self
				spans += p.agg[t][k][c].Count
			}
		}
		if spans == 0 {
			continue
		}
		fmt.Printf("  %-6s %14s  %6.1f%% of window  (%d spans)\n", t.String(), commas(busy), pct(busy, w), spans)
	}
}

// writeFolded emits flamegraph-style folded stacks: ancestry reconstructed
// from the retained spans per track (value = self cycles), plus the
// aggregate-only high-volume kinds as single-frame stacks. Lines are
// sorted, so output is deterministic.
func writeFolded(w io.Writer, p *profile) {
	counts := map[string]uint64{}
	for t := obs.TrackID(0); t < obs.NumTracks; t++ {
		var spans []obs.Span
		for _, s := range p.spans {
			if s.Track == t {
				spans = append(spans, s)
			}
		}
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Depth < spans[j].Depth
		})
		var stack []string
		var open []obs.Span
		for _, s := range spans {
			for len(open) > 0 {
				top := open[len(open)-1]
				if top.End <= s.Start || top.Depth >= s.Depth {
					open = open[:len(open)-1]
					stack = stack[:len(stack)-1]
					continue
				}
				break
			}
			open = append(open, s)
			stack = append(stack, frameLabel(s.Kind, s.Cause))
			if s.Self > 0 {
				counts[p.name+";"+t.String()+";"+strings.Join(stack, ";")] += s.Self
			}
		}
		// High-volume aggregate-only kinds have no retained spans; surface
		// them as single-frame stacks so their cycles still show up.
		for k := obs.SpanKind(0); k < obs.NumSpanKinds; k++ {
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				cell := p.agg[t][k][c]
				if cell.Count == 0 || cell.Self == 0 || retainedKind(k, c) {
					continue
				}
				counts[p.name+";"+t.String()+";"+frameLabel(k, c)] += cell.Self
			}
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, counts[k])
	}
}

// retainedKind mirrors the collector's retention policy (obs.retainSpan):
// kinds whose spans appear individually in the trace.
func retainedKind(k obs.SpanKind, c obs.Cause) bool {
	if k == obs.SpanCacheFetch || k == obs.SpanCacheWriteback {
		return false
	}
	return c != obs.CauseBTTMiss && c != obs.CauseQueueFull
}

// frameLabel names one stack frame: the kind, qualified by its cause when
// that adds information (stalls share a kind, differ by cause).
func frameLabel(k obs.SpanKind, c obs.Cause) string {
	switch k {
	case obs.SpanStall:
		return k.String() + ":" + c.String()
	case obs.SpanEpoch:
		return k.String()
	}
	return k.String()
}

// pct is a safe percentage (0 when the denominator is 0).
func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// commas renders n with thousands separators.
func commas(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchDef is the part of BENCHMARK.json the comparator reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults collects the result objects (one JSON line per run, as the
// benchmark prints last) from a file; other lines are skipped. A run that
// was not correct or had failed units is an error: its times mean nothing.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read only
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			continue
		}
		if !r.Correct || r.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: run is not correct (%d of %d units failed)", path, n, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles compares two sets of runs metric by metric. A metric
// regresses when the new median is worse than the old by more than its
// bound; it is unresolved when either side's quartile spread exceeds the
// bound. It returns an error when any metric regressed or is missing on
// either side (as with result lines of --trace 1 runs).
func compareFiles(benchPath, oldPath, newPath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	regressed, missing := 0, 0
	fmt.Printf("%-14s %5s %12s %8s %5s %12s %8s %8s  %s\n", "metric", "n", "old median", "spread", "n", "new median", "spread", "change", "verdict")
	for _, e := range def.EndToEnd {
		a, b := old[e.Name], cur[e.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Printf("%-14s %5d %12s %8s %5d  MISSING\n", e.Name, len(a), "", "", len(b))
			missing++
			continue
		}
		ma, mb := median(a), median(b)
		sa, sb := spread(a), spread(b)
		change := div(mb-ma, ma)
		worse := change
		if e.Better == "higher" {
			worse = -change
		}
		verdict := "same"
		switch {
		case sa > e.Bound || sb > e.Bound:
			verdict = "unresolved (spread above bound)"
		case worse > e.Bound:
			verdict = "REGRESSED"
			regressed++
		case -worse > sa && -worse > sb:
			verdict = "better"
		}
		fmt.Printf("%-14s %5d %12.6g %7.2f%% %5d %12.6g %7.2f%% %+7.2f%%  %s (bound %g%%)\n",
			e.Name, len(a), ma, 100*sa, len(b), mb, 100*sb, 100*change, verdict, 100*e.Bound)
	}
	if missing > 0 {
		return fmt.Errorf("%d metric(s) missing on one side", missing)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed past their bound", regressed)
	}
	return nil
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return div(q3-q1, median(xs))
}

package torture

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func readSeeds(t *testing.T, dir string) map[string]*Schedule {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", dir, "*.seed"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no seeds under testdata/%s", dir)
	}
	sort.Strings(paths)
	out := make(map[string]*Schedule, len(paths))
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if s.Encode() != string(text) {
			t.Errorf("%s: not in canonical form (re-encode differs)", p)
		}
		out[filepath.Base(p)] = s
	}
	return out
}

// Every corpus seed must replay clean: these are the regression schedules
// PR CI runs on every push.
func TestCorpusReplaysClean(t *testing.T) {
	seeds := readSeeds(t, "corpus")
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o, err := Run(seeds[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Violation != "" {
			t.Errorf("%s: %s", name, o.Violation)
		}
	}
}

// The canary seeds carry a deliberately injected bug; the oracle must flag
// every one of them. A canary replaying clean means the campaign has gone
// blind.
func TestCanarySeedsStillDetected(t *testing.T) {
	seeds := readSeeds(t, "canary")
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o, err := Run(seeds[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Violation == "" {
			t.Errorf("%s: injected bug no longer detected", name)
		}
	}
}

// labelless is a valid seed without the optional label line.
const labelless = `thynvm-torture v1
system thynvm
phys 1048576
epoch_ns 50000
btt 256
ptt 64
footprint 65536
op w 0 64 1
op k
op x
end
`

// FuzzParseSchedule feeds the seed parser arbitrary text. It must never
// panic, and whatever it accepts must survive the canonical round trip:
// the encoding parses again and encodes to the same bytes.
func FuzzParseSchedule(f *testing.F) {
	for _, dir := range []string{"corpus", "canary"} {
		paths, err := filepath.Glob(filepath.Join("testdata", dir, "*.seed"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			text, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(text))
		}
	}
	f.Add(labelless)
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		enc := s.Encode()
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("accepted %q, but its encoding %q fails to parse: %v", text, enc, err)
		}
		if got := again.Encode(); got != enc {
			t.Fatalf("encoding of %q is unstable:\n%s\nvs\n%s", text, enc, got)
		}
	})
}

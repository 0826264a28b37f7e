package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// spanCollector builds a two-epoch run with nested stalls, a background
// drain overlapping epoch 1, and an aggregate-only cache fill.
func spanCollector() *Collector {
	c := NewCollector()
	c.BeginSpan(TrackCPU, 0, SpanEpoch, CauseExec, 0)
	// A queue stall inside epoch 0.
	c.BeginSpan(TrackCPU, 10, SpanStall, CauseQueueFull, 0)
	c.EndSpan(TrackCPU, 25)
	// Cache flush then staging close epoch 0 at 100, resume at 120.
	c.BeginSpan(TrackCPU, 80, SpanCacheFlush, CauseCacheFlush, 3)
	c.EndSpan(TrackCPU, 100)
	c.BeginSpan(TrackCkpt, 100, SpanCkptDrain, CauseCkptDrain, 0)
	c.BeginSpan(TrackCkpt, 100, SpanTablePersist, CauseCkptDrain, 512)
	c.EndSpan(TrackCkpt, 300)
	c.BeginSpan(TrackCPU, 100, SpanCkptStage, CauseCkptStage, 0)
	c.EndSpan(TrackCPU, 120)
	c.EndSpan(TrackCPU, 120) // epoch 0 root
	c.BeginSpan(TrackCPU, 120, SpanEpoch, CauseExec, 1)
	// Aggregate-only traffic during epoch 1.
	c.BeginSpan(TrackCache, 130, SpanCacheFetch, CauseExec, 42)
	c.EndSpan(TrackCache, 190)
	c.EndSpan(TrackCkpt, 400) // drain commits mid-epoch-1
	// Close epoch 1 at 500 with no checkpoint work.
	c.EndSpan(TrackCPU, 500)
	return c
}

func TestSpanSelfTimeAndNesting(t *testing.T) {
	c := spanCollector()
	if n := c.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	// Find the epoch 0 root.
	var root *Span
	for i := range c.Spans {
		s := &c.Spans[i]
		if s.Kind == SpanEpoch && s.Arg == 0 {
			root = s
		}
	}
	if root == nil {
		t.Fatal("epoch 0 root span not recorded")
	}
	if root.Start != 0 || root.End != 120 || root.Depth != 0 {
		t.Fatalf("root = [%d,%d] depth %d, want [0,120] depth 0", root.Start, root.End, root.Depth)
	}
	// Self = 120 - (15 stall + 20 flush + 20 stage) = 65.
	if root.Self != 65 {
		t.Fatalf("root self = %d, want 65", root.Self)
	}
	// The drain window's persist child: drain total 300, self 300-200=100.
	drain := c.Agg[TrackCkpt][SpanCkptDrain][CauseCkptDrain]
	if drain.Count != 1 || drain.Total != 300 || drain.Self != 100 {
		t.Fatalf("drain agg = %+v, want {1 300 100}", drain)
	}
}

func TestSpanAttributionInvariant(t *testing.T) {
	c := spanCollector()
	if err := c.Attrib.Check(); err != nil {
		t.Fatal(err)
	}
	if len(c.Attrib) != 2 {
		t.Fatalf("%d attribution rows, want 2", len(c.Attrib))
	}
	r0 := c.Attrib[0]
	if r0.Epoch != 0 || r0.Start != 0 || r0.End != 120 {
		t.Fatalf("row 0 = %+v", r0)
	}
	want := [NumCauses]uint64{}
	want[CauseExec] = 65
	want[CauseQueueFull] = 15
	want[CauseCacheFlush] = 20
	want[CauseCkptStage] = 20
	if r0.Cycles != want {
		t.Fatalf("row 0 cycles = %v, want %v", r0.Cycles, want)
	}
	// Rows tile: row 1 starts where row 0 ends.
	if c.Attrib[1].Start != 120 || c.Attrib[1].End != 500 {
		t.Fatalf("row 1 = %+v", c.Attrib[1])
	}
	if c.Attrib[1].Cycles[CauseExec] != 380 {
		t.Fatalf("row 1 exec = %d, want 380", c.Attrib[1].Cycles[CauseExec])
	}
}

func TestSpanAttributionDetectsBrokenSum(t *testing.T) {
	c := spanCollector()
	c.Attrib[0].Cycles[CauseExec]++
	if err := c.Attrib.Check(); err == nil {
		t.Fatal("Attribution.Check accepted a row whose causes do not sum to End-Start")
	}
	c = spanCollector()
	c.Attrib[1].Start++
	c.Attrib[1].Cycles[CauseExec]-- // keep the sum valid so only tiling breaks
	if err := c.Attrib.Check(); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("Attribution.Check accepted non-tiling rows (err=%v)", err)
	}
}

func TestSpanRetentionPolicy(t *testing.T) {
	c := spanCollector()
	for _, s := range c.Spans {
		if s.Kind == SpanCacheFetch || s.Kind == SpanCacheWriteback {
			t.Fatalf("high-volume span retained: %+v", s)
		}
		if s.Cause == CauseQueueFull || s.Cause == CauseBTTMiss {
			t.Fatalf("per-request stall span retained: %+v", s)
		}
	}
	fetch := c.Agg[TrackCache][SpanCacheFetch][CauseExec]
	if fetch.Count != 1 || fetch.Total != 60 {
		t.Fatalf("cache fetch agg = %+v, want count 1 total 60", fetch)
	}
	// Aggregate-only spans still feed the aggregate table...
	stall := c.Agg[TrackCPU][SpanStall][CauseQueueFull]
	if stall.Count != 1 || stall.Total != 15 {
		t.Fatalf("queue stall agg = %+v, want count 1 total 15", stall)
	}
	// ...and the attribution rows (checked in TestSpanAttributionInvariant).
}

func TestEndSpanOnEmptyStackIsNoop(t *testing.T) {
	c := NewCollector()
	c.EndSpan(TrackCkpt, 100) // e.g. drain-complete after mid-run attach
	if len(c.Spans) != 0 || c.OpenSpans() != 0 {
		t.Fatalf("EndSpan on empty stack recorded something: %d spans", len(c.Spans))
	}
}

func TestSpanReset(t *testing.T) {
	c := spanCollector()
	c.Reset()
	if len(c.Spans) != 0 || len(c.Attrib) != 0 || c.OpenSpans() != 0 {
		t.Fatal("Reset left span state behind")
	}
	if c.Agg != ([NumTracks][NumSpanKinds][NumCauses]AggCell{}) {
		t.Fatal("Reset left aggregate cells behind")
	}
}

// TestSpanHotPathAllocates0 checks the span hot path stays allocation-free
// once per-track stacks and the retained-span slice have warmed up.
func TestSpanHotPathAllocates0(t *testing.T) {
	c := NewCollector()
	var r Recorder = c
	r.BeginSpan(TrackCPU, 0, SpanEpoch, CauseExec, 0)
	// Warm the stack and aggregate-only path; CauseBTTMiss spans are not
	// retained, so steady-state emission appends nothing.
	allocs := testing.AllocsPerRun(1000, func() {
		r.BeginSpan(TrackCPU, 10, SpanStall, CauseBTTMiss, 0)
		r.EndSpan(TrackCPU, 20)
		r.BeginSpan(TrackCache, 10, SpanCacheFetch, CauseExec, 1)
		r.EndSpan(TrackCache, 30)
	})
	if allocs != 0 {
		t.Fatalf("span hot path allocated %v/op, want 0", allocs)
	}
}

func TestWriteSpanJSONLDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := spanCollector().WriteSpanJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := spanCollector().WriteSpanJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical collectors exported different span JSONL")
	}
	var spans, attribs, aggs int
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if len(m) != 1 {
			t.Fatalf("line %q has %d top-level keys, want 1", line, len(m))
		}
		switch {
		case m["span"] != nil:
			spans++
		case m["attrib"] != nil:
			attribs++
		case m["agg"] != nil:
			aggs++
		default:
			t.Fatalf("unknown record type in line %q", line)
		}
	}
	c := spanCollector()
	if spans != len(c.Spans) || attribs != len(c.Attrib) {
		t.Fatalf("exported %d spans / %d attribs, want %d / %d",
			spans, attribs, len(c.Spans), len(c.Attrib))
	}
	if aggs == 0 {
		t.Fatal("no aggregate cells exported")
	}
}

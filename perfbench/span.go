package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// clock is the benchmark's monotonic host clock, in nanoseconds since start.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// Layers a boundary's self time is charged to.
const (
	layerNone     = "" // a unit pseudo-span: its self time stays unattributed
	layerTrace    = "trace"
	layerKV       = "kv"
	layerSim      = "sim"
	layerCache    = "cache"
	layerCore     = "core"
	layerBaseline = "baseline"
	layerTorture  = "torture"
)

// boundary aggregates every closed span of one name.
type boundary struct {
	name  string
	layer string
	count int64
	total int64 // inclusive ns
	child int64 // ns covered by child spans
	kept  int   // spans of this name in the sample
}

func (b boundary) self() int64 { return b.total - b.child }

type frame struct {
	id     int
	seq    int64
	start  int64
	child  int64
	parent int64
}

// spanRec is one full span of the written-out sample.
type spanRec struct {
	Name   string `json:"name"`
	Seq    int64  `json:"seq"`
	Parent int64  `json:"parent"` // -1 for a root span
	Unit   int64  `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// sampleSpansPerBoundary bounds the full spans kept per boundary name.
const sampleSpansPerBoundary = 64

// recorder records host-time spans at the layer boundaries the decorators
// wrap. Spans nest LIFO on one stack (the simulation is single-threaded);
// each closed span adds its duration to its boundary's total and to its
// parent's child time, so self time is span minus children. Aggregates stay
// in memory; a bounded sample of full spans is written out at the end.
type recorder struct {
	on     bool
	unit   int64 // current latency unit (batch, transaction or schedule)
	seq    int64
	ids    map[string]int
	bounds []*boundary
	stack  []frame
	sample []spanRec
}

func newRecorder() *recorder { return &recorder{ids: map[string]int{}} }

// id registers (once) and returns a boundary's index.
func (r *recorder) id(name, layer string) int {
	if i, ok := r.ids[name]; ok {
		return i
	}
	r.ids[name] = len(r.bounds)
	r.bounds = append(r.bounds, &boundary{name: name, layer: layer})
	return len(r.bounds) - 1
}

func (r *recorder) begin(id int) {
	parent := int64(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].seq
	}
	r.seq++
	r.stack = append(r.stack, frame{id: id, seq: r.seq, start: nanotime(), parent: parent})
}

func (r *recorder) end() {
	t := nanotime()
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	d := t - f.start
	b := r.bounds[f.id]
	b.count++
	b.total += d
	b.child += f.child
	if n > 0 {
		r.stack[n-1].child += d
	}
	if b.kept < sampleSpansPerBoundary {
		b.kept++
		r.sample = append(r.sample, spanRec{Name: b.name, Seq: f.seq, Parent: f.parent, Unit: r.unit, Start: f.start, End: t})
	}
}

// drop discards the innermost open span without recording it.
func (r *recorder) drop() { r.stack = r.stack[:len(r.stack)-1] }

// get returns the named boundary's aggregate (zero when never recorded).
func (r *recorder) get(name string) boundary {
	if i, ok := r.ids[name]; ok {
		return *r.bounds[i]
	}
	return boundary{name: name}
}

// layerSelf sums self time per layer.
func (r *recorder) layerSelf() map[string]int64 {
	out := map[string]int64{}
	for _, b := range r.bounds {
		if b.layer != layerNone {
			out[b.layer] += b.self()
		}
	}
	return out
}

// writeSample writes the span sample as JSON lines.
func (r *recorder) writeSample(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.sample {
		if err := enc.Encode(&r.sample[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing span sample: %w", err)
	}
	return nil
}

package ctl

import (
	"reflect"
	"testing"

	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// span is the part of a retained obs.Span a timeline pins.
type span struct {
	track      obs.TrackID
	kind       obs.SpanKind
	start, end uint64
	arg        uint64
}

// TestDurableTimeline drives the epoch ledger through the four commit
// shapes of the five systems — ThyNVM's background commit, journaling's
// stop-the-world one, shadow paging's forced mid-epoch flush before its
// epoch-end checkpoint, and an ideal system's free one — each closing epoch
// 0 (begun at cycle 100) with a checkpoint at 200, and checks what a
// Collector keeps of it: the events, the retained spans in completion
// order, the epoch sample, the counters and the drain histogram, and that
// the attribution row tiles the epoch.
func TestDurableTimeline(t *testing.T) {
	ev := func(cycle uint64, kind obs.EventKind, a, b uint64) obs.Event {
		return obs.Event{Cycle: cycle, Kind: kind, A: a, B: b}
	}
	rows := []struct {
		name   string
		drive  func(d *Durable)
		events []obs.Event
		spans  []span
		sample obs.EpochSample
		counts Stats     // Epochs, Commits, CkptBusy
		start  mem.Cycle // EpochStart afterwards
		drains []uint64  // drain latencies observed
	}{
		{
			name: "background",
			drive: func(d *Durable) {
				d.EndEpoch(200, 0, false)
				d.Persisted(64, 250)
				d.NextEpoch(210, EpochMeta{DirtyBlocks: 3})
				d.Committed(400)
			},
			events: []obs.Event{
				ev(200, obs.EvEpochEnd, 0, 0),
				ev(200, obs.EvCkptBegin, 0, 0),
				ev(210, obs.EvEpochBegin, 1, 0),
				ev(400, obs.EvCkptComplete, 0, 200),
			},
			spans: []span{
				{obs.TrackCkpt, obs.SpanTablePersist, 200, 250, 64},
				{obs.TrackCPU, obs.SpanCkptStage, 200, 210, 0},
				{obs.TrackCPU, obs.SpanEpoch, 100, 210, 0},
				{obs.TrackCkpt, obs.SpanCkptDrain, 200, 400, 0},
			},
			// The commit lands after the sample: its busy time is the next
			// epoch's.
			sample: obs.EpochSample{Epoch: 0, Start: 100, End: 200, DirtyBlocks: 3},
			counts: Stats{Epochs: 1, Commits: 1, CkptBusy: 200},
			start:  210,
			drains: []uint64{200},
		},
		{
			name: "stop-the-world",
			drive: func(d *Durable) {
				d.EndEpoch(200, 0, true)
				d.Persisted(64, 250)
				d.Committed(300)
				d.NextEpoch(300, EpochMeta{DirtyBlocks: 3})
			},
			events: []obs.Event{
				ev(200, obs.EvEpochEnd, 0, 0),
				ev(200, obs.EvCkptForced, 0, 0),
				ev(200, obs.EvCkptBegin, 0, 0),
				ev(300, obs.EvCkptComplete, 0, 100),
				ev(300, obs.EvEpochBegin, 1, 0),
			},
			spans: []span{
				{obs.TrackCkpt, obs.SpanTablePersist, 200, 250, 64},
				{obs.TrackCkpt, obs.SpanCkptDrain, 200, 300, 0},
				{obs.TrackCPU, obs.SpanCkptStage, 200, 300, 0},
				{obs.TrackCPU, obs.SpanEpoch, 100, 300, 0},
			},
			sample: obs.EpochSample{Epoch: 0, Start: 100, End: 200, DirtyBlocks: 3, Busy: 100, Forced: true},
			counts: Stats{Epochs: 1, Commits: 1, CkptBusy: 100},
			start:  300,
			drains: []uint64{100},
		},
		{
			name: "forced-flush",
			drive: func(d *Durable) {
				d.BeginCkpt(150, 0, true)
				d.Tele.StallSpan(150, 180, obs.CauseWriteBuffer)
				d.Persisted(32, 170)
				d.Committed(180)
				d.EndEpoch(200, 0, false)
				d.Persisted(64, 220)
				d.Committed(240)
				d.NextEpoch(240, EpochMeta{DirtyBlocks: 3})
			},
			events: []obs.Event{
				ev(150, obs.EvCkptForced, 0, 0),
				ev(150, obs.EvCkptBegin, 0, 0),
				ev(180, obs.EvCkptComplete, 0, 30),
				ev(200, obs.EvEpochEnd, 0, 0),
				ev(200, obs.EvCkptBegin, 0, 0),
				ev(240, obs.EvCkptComplete, 0, 40),
				ev(240, obs.EvEpochBegin, 1, 0),
			},
			spans: []span{
				{obs.TrackCPU, obs.SpanStall, 150, 180, 0},
				{obs.TrackCkpt, obs.SpanTablePersist, 150, 170, 32},
				{obs.TrackCkpt, obs.SpanCkptDrain, 150, 180, 0},
				{obs.TrackCkpt, obs.SpanTablePersist, 200, 220, 64},
				{obs.TrackCkpt, obs.SpanCkptDrain, 200, 240, 0},
				{obs.TrackCPU, obs.SpanCkptStage, 200, 240, 0},
				{obs.TrackCPU, obs.SpanEpoch, 100, 240, 0},
			},
			sample: obs.EpochSample{Epoch: 0, Start: 100, End: 200, DirtyBlocks: 3, Busy: 70},
			counts: Stats{Epochs: 1, Commits: 2, CkptBusy: 70},
			start:  240,
			drains: []uint64{30, 40},
		},
		{
			name: "free",
			drive: func(d *Durable) {
				d.EndEpoch(200, 0, false)
				d.Committed(200)
				d.NextEpoch(200, EpochMeta{DirtyBlocks: 3})
			},
			events: []obs.Event{
				ev(200, obs.EvEpochEnd, 0, 0),
				ev(200, obs.EvCkptBegin, 0, 0),
				ev(200, obs.EvCkptComplete, 0, 0),
				ev(200, obs.EvEpochBegin, 1, 0),
			},
			spans: []span{
				{obs.TrackCPU, obs.SpanEpoch, 100, 200, 0},
			},
			sample: obs.EpochSample{Epoch: 0, Start: 100, End: 200, DirtyBlocks: 3},
			counts: Stats{Epochs: 1, Commits: 1},
			start:  200,
			drains: []uint64{0},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := &Durable{Dev: mem.NewDevice(mem.NVMSpec()), EpochStart: 100}
			col := obs.NewCollector()
			d.Attach(col, 0)
			row.drive(d)

			if !reflect.DeepEqual(col.Events, row.events) {
				t.Errorf("events\n got %v\nwant %v", col.Events, row.events)
			}
			var spans []span
			for _, s := range col.Spans {
				spans = append(spans, span{s.Track, s.Kind, s.Start, s.End, s.Arg})
			}
			if !reflect.DeepEqual(spans, row.spans) {
				t.Errorf("retained spans\n got %v\nwant %v", spans, row.spans)
			}
			if len(col.Epochs) != 1 || col.Epochs[0] != row.sample {
				t.Errorf("epoch samples %+v, want [%+v]", col.Epochs, row.sample)
			}
			got := Stats{Epochs: d.Counts.Epochs, Commits: d.Counts.Commits, CkptBusy: d.Counts.CkptBusy}
			if got != row.counts || d.EpochStart != row.start {
				t.Errorf("counters %+v, epoch start %d; want %+v, %d", got, d.EpochStart, row.counts, row.start)
			}
			var h obs.Histogram
			for _, v := range row.drains {
				h.Observe(v)
			}
			if col.Hists[obs.HistCkptDrain] != h {
				t.Errorf("drain histogram %+v, want %+v", col.Hists[obs.HistCkptDrain], h)
			}
			if err := col.Attrib.Check(); err != nil || len(col.Attrib) != 1 {
				t.Errorf("attribution %+v (%v), want one row that tiles epoch 0", col.Attrib, err)
			}
			if open := col.OpenSpans(); open != 1 {
				t.Errorf("%d spans open, want only epoch 1's root", open)
			}
		})
	}
}

package obs

// Collector is the in-memory Recorder: it appends events and epoch samples
// in arrival order (which, for a deterministic simulation, is itself
// deterministic) and accumulates the fixed latency histograms. It is not
// safe for concurrent use; the simulator is single-threaded.
type Collector struct {
	Events []Event
	Epochs []EpochSample
	Hists  [NumHists]Histogram

	// Spans holds completed spans in completion order (see retainSpan for
	// which kinds are kept individually); Attrib holds the per-epoch
	// cycle-attribution rows; Agg is the (track, kind, cause) aggregate.
	Spans  []Span
	Attrib Attribution
	Agg    [NumTracks][NumSpanKinds][NumCauses]AggCell

	stacks  [NumTracks][]spanFrame
	row     EpochAttrib
	rowOpen bool

	// tracePID/traceName are the Chrome-trace process identity
	// (SetTraceIdentity); zero values render as pid 1, "thynvm".
	tracePID  int
	traceName string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

var _ Recorder = (*Collector)(nil)

// Enabled implements Recorder.
func (c *Collector) Enabled() bool { return true }

// Event implements Recorder.
func (c *Collector) Event(cycle uint64, kind EventKind, a, b uint64) {
	c.Events = append(c.Events, Event{Cycle: cycle, Kind: kind, A: a, B: b})
}

// Latency implements Recorder.
func (c *Collector) Latency(h HistID, cycles uint64) {
	if h < NumHists {
		c.Hists[h].Observe(cycles)
	}
}

// EpochSample implements Recorder.
func (c *Collector) EpochSample(s EpochSample) {
	c.Epochs = append(c.Epochs, s)
}

// Reset drops all recorded data, keeping allocated capacity.
func (c *Collector) Reset() {
	c.Events = c.Events[:0]
	c.Epochs = c.Epochs[:0]
	c.Hists = [NumHists]Histogram{}
	c.Spans = c.Spans[:0]
	c.Attrib = c.Attrib[:0]
	c.Agg = [NumTracks][NumSpanKinds][NumCauses]AggCell{}
	for t := range c.stacks {
		c.stacks[t] = c.stacks[t][:0]
	}
	c.row = EpochAttrib{}
	c.rowOpen = false
}

// SumEpochs adds up the delta fields of every recorded epoch sample; tests
// use it to check that the series reproduces the aggregate controller
// stats.
func (c *Collector) SumEpochs() EpochSample {
	var t EpochSample
	for _, s := range c.Epochs {
		t.Stall += s.Stall
		t.Busy += s.Busy
		t.DirtyBlocks += s.DirtyBlocks
		t.DirtyPages += s.DirtyPages
		t.MigrationsIn += s.MigrationsIn
		t.MigrationsOut += s.MigrationsOut
		t.Spills += s.Spills
		t.Buffered += s.Buffered
		for i := range s.NVMBySource {
			t.NVMBySource[i] += s.NVMBySource[i]
		}
		t.NVMWritten += s.NVMWritten
		t.NVMRead += s.NVMRead
		t.DRAMWritten += s.DRAMWritten
	}
	return t
}

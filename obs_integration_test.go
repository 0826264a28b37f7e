package thynvm_test

import (
	"bytes"
	"testing"

	"thynvm"
	"thynvm/internal/obs"
)

// telemetryRun executes one seeded workload with a collector attached and
// returns the four export formats plus the result.
func telemetryRun(t *testing.T, k thynvm.SystemKind) (jsonl, chrome, metrics, spans []byte, res thynvm.Result) {
	t.Helper()
	sys := thynvm.MustNewSystem(k, smallOpts())
	col := obs.NewCollector()
	sys.SetRecorder(col)
	res = sys.Run(thynvm.RandomWorkload(1<<20, 3000, 5))
	sys.Drain()
	var a, b, c, d bytes.Buffer
	if err := col.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteChromeTrace(&b, 3000); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetricsJSON(&c); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteSpanJSONL(&d); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes(), c.Bytes(), d.Bytes(), res
}

// TestTelemetryDeterministic checks that same-seed runs produce
// byte-identical telemetry in every export format, for every system: all
// telemetry is keyed on simulated cycles, never wall-clock.
func TestTelemetryDeterministic(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			j1, c1, m1, s1, r1 := telemetryRun(t, k)
			j2, c2, m2, s2, r2 := telemetryRun(t, k)
			if !bytes.Equal(j1, j2) {
				t.Error("JSONL event logs differ between same-seed runs")
			}
			if !bytes.Equal(c1, c2) {
				t.Error("Chrome traces differ between same-seed runs")
			}
			if !bytes.Equal(m1, m2) {
				t.Error("metrics JSON differs between same-seed runs")
			}
			if !bytes.Equal(s1, s2) {
				t.Error("span streams differ between same-seed runs")
			}
			if len(s1) == 0 {
				t.Error("no spans recorded")
			}
			if r1.Cycles != r2.Cycles {
				t.Errorf("cycles differ between same-seed runs: %d vs %d", r1.Cycles, r2.Cycles)
			}
			if len(j1) == 0 && k != thynvm.SystemIdealDRAM && k != thynvm.SystemIdealNVM {
				t.Error("no events recorded on a checkpointing system")
			}
		})
	}
}

// TestTelemetryDoesNotPerturb checks that attaching a recorder is purely
// observational: the simulated timeline is identical with and without it.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			plain := thynvm.MustNewSystem(k, smallOpts())
			r1 := plain.Run(thynvm.RandomWorkload(1<<20, 3000, 5))
			plain.Drain()

			_, _, _, _, r2 := telemetryRun(t, k)
			if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions {
				t.Errorf("recorder perturbed the simulation: %d cycles / %d instr vs %d / %d",
					r1.Cycles, r1.Instructions, r2.Cycles, r2.Instructions)
			}
		})
	}
}

// TestEpochSeriesSumsToStats checks the delta property of the per-epoch
// time series: summed over all epochs, the series reproduces the
// controller's aggregate counters at the instant of the last sample (which
// is emitted at the end of BeginCheckpoint).
func TestEpochSeriesSumsToStats(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			sys := thynvm.MustNewSystem(k, smallOpts())
			col := obs.NewCollector()
			sys.SetRecorder(col)
			sys.Run(thynvm.RandomWorkload(1<<20, 3000, 5))
			// Close the final partial epoch so its activity is sampled, and
			// read the aggregate stats at that same instant.
			sys.Checkpoint()
			st := sys.Stats()

			if len(col.Epochs) == 0 {
				t.Fatal("no epoch samples recorded")
			}
			sum := col.SumEpochs()
			check := func(name string, got, want uint64) {
				if got != want {
					t.Errorf("sum of per-epoch %s = %d, aggregate Stats says %d", name, got, want)
				}
			}
			check("ckpt_stall_cycles", sum.Stall, uint64(st.CkptStall))
			check("ckpt_busy_cycles", sum.Busy, uint64(st.CkptBusy))
			check("migrations_in", sum.MigrationsIn, st.MigrationsIn)
			check("migrations_out", sum.MigrationsOut, st.MigrationsOut)
			check("table_spills", sum.Spills, st.TableSpills)
			check("buffered_block_writes", sum.Buffered, st.BufferedBlockWrites)
			check("nvm_bytes_written", sum.NVMWritten, st.NVM.BytesWritten)
			check("nvm_bytes_read", sum.NVMRead, st.NVM.BytesRead)
			check("dram_bytes_written", sum.DRAMWritten, st.DRAM.BytesWritten)
			for i := range sum.NVMBySource {
				check("nvm_bytes_by_source", sum.NVMBySource[i], st.NVM.BytesBySource[i])
			}
			// Epoch ids must be the consecutive series 0..n-1.
			for i, s := range col.Epochs {
				if s.Epoch != uint64(i) {
					t.Fatalf("epoch sample %d has id %d", i, s.Epoch)
				}
			}
		})
	}
}

// TestCycleAttributionExact is the accounting invariant behind thynvm-prof:
// for every scheme, the per-epoch cause cycles sum EXACTLY to the epoch
// window, rows tile the timeline gaplessly from cycle 0, and the last closed
// row ends no later than the current cycle. Nothing is lost, nothing is
// double-counted.
func TestCycleAttributionExact(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			sys := thynvm.MustNewSystem(k, smallOpts())
			col := obs.NewCollector()
			sys.SetRecorder(col)
			sys.Run(thynvm.RandomWorkload(1<<20, 3000, 5))
			// Close the final partial epoch so every cycle is attributed,
			// then let any background drain commit.
			sys.Checkpoint()
			sys.Drain()

			if err := col.Attrib.Check(); err != nil {
				t.Fatal(err)
			}
			if len(col.Attrib) == 0 {
				t.Fatal("no attribution rows recorded")
			}
			first, last := col.Attrib[0], col.Attrib[len(col.Attrib)-1]
			if first.Start != 0 {
				t.Errorf("attribution does not start at cycle 0 (starts at %d)", first.Start)
			}
			if now := uint64(sys.Now()); last.End > now {
				t.Errorf("last attribution row ends at %d, beyond current cycle %d", last.End, now)
			}
			// Total attributed cycles == span of the closed rows (telescoping
			// over tiled rows; Attribution.Check verified each row).
			byCause := col.Attrib.Sum()
			var total uint64
			for _, v := range byCause {
				total += v
			}
			if want := last.End - first.Start; total != want {
				t.Errorf("attributed %d cycles over a %d-cycle window", total, want)
			}
			// A checkpointing scheme must attribute some cycles to causes
			// beyond pure execution.
			if k != thynvm.SystemIdealDRAM && k != thynvm.SystemIdealNVM {
				if total-byCause[obs.CauseExec] == 0 {
					t.Error("checkpointing scheme attributed zero non-exec cycles")
				}
			}
		})
	}
}

package ctl

import (
	"testing"

	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// touch gives dev one read and one write, so every counter a test reads is
// non-zero.
func touch(dev *mem.Device) {
	var blk [mem.BlockSize]byte
	dev.Write(dev.Read(0, 0, blk[:]), mem.BlockSize, blk[:], mem.SrcCPU)
}

// TestDurableStats checks that Stats adds each device's counters under its
// kind: a one-device system under its device's spec (DRAM or NVM), a
// two-device one under both, and that ResetStats zeroes the controller's
// counters and both devices'.
func TestDurableStats(t *testing.T) {
	rows := []struct {
		name              string
		dev               mem.DeviceSpec
		hybrid            bool // a volatile DRAM beside dev
		wantNVM, wantDRAM bool // which device slots report traffic
	}{
		{name: "dram-only", dev: mem.DRAMSpec(), wantDRAM: true},
		{name: "nvm-only", dev: mem.NVMSpec(), wantNVM: true},
		{name: "hybrid", dev: mem.NVMSpec(), hybrid: true, wantNVM: true, wantDRAM: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := &Durable{Dev: mem.NewDevice(row.dev)}
			touch(d.Dev)
			if row.hybrid {
				d.Vol = mem.NewDevice(mem.DRAMSpec())
				touch(d.Vol)
				touch(d.Vol) // the two devices' counters differ
			}
			d.Counts.Epochs, d.Counts.PeakBTTLive = 3, 9

			st := d.Stats()
			if st.Epochs != 3 || st.PeakBTTLive != 9 {
				t.Errorf("controller counters %+v, want Epochs 3 and PeakBTTLive 9", st)
			}
			if got := st.NVM.Reads > 0; got != row.wantNVM {
				t.Errorf("NVM reports %d reads, want traffic %v", st.NVM.Reads, row.wantNVM)
			}
			if got := st.DRAM.Reads > 0; got != row.wantDRAM {
				t.Errorf("DRAM reports %d reads, want traffic %v", st.DRAM.Reads, row.wantDRAM)
			}
			if row.hybrid && (st.NVM != d.Dev.Stats() || st.DRAM != d.Vol.Stats()) {
				t.Errorf("NVM %+v, DRAM %+v; want the durable device's %+v and the volatile one's %+v",
					st.NVM, st.DRAM, d.Dev.Stats(), d.Vol.Stats())
			}

			d.ResetStats()
			if st := d.Stats(); st != (Stats{}) {
				t.Errorf("after ResetStats: %+v, want zero", st)
			}
		})
	}
}

// TestDurableAttach checks that Attach hands the recorder to both devices,
// which observe into their own kind's histograms, opens the running
// epoch's root span, and that Attach(nil, …) detaches both devices and the
// sampler.
func TestDurableAttach(t *testing.T) {
	d := &Durable{Dev: mem.NewDevice(mem.NVMSpec()), Vol: mem.NewDevice(mem.DRAMSpec())}
	col := obs.NewCollector()
	d.EpochStart = 100
	d.Attach(col, 7)
	if !d.Tele.On() || col.OpenSpans() != 1 {
		t.Fatalf("attached: sampler on %v, %d open spans; want on and the epoch root", d.Tele.On(), col.OpenSpans())
	}
	touch(d.Dev)
	touch(d.Vol)
	h := col.Hists
	if h[obs.HistNVMRead].Count != 1 || h[obs.HistNVMWrite].Count != 1 ||
		h[obs.HistDRAMRead].Count != 1 || h[obs.HistDRAMWrite].Count != 1 {
		t.Fatalf("attached: NVM %d/%d, DRAM %d/%d reads/writes observed; want 1/1 each",
			h[obs.HistNVMRead].Count, h[obs.HistNVMWrite].Count, h[obs.HistDRAMRead].Count, h[obs.HistDRAMWrite].Count)
	}

	d.Attach(nil, 8)
	touch(d.Dev)
	touch(d.Vol)
	if d.Tele.On() || col.Hists != h {
		t.Errorf("detached: sampler on %v, histograms changed %v; want neither", d.Tele.On(), col.Hists != h)
	}
}

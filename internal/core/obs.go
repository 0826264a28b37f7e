package core

import (
	"thynvm/internal/mem"
	"thynvm/internal/obs"
)

// SetRecorder implements ctl.Controller: it attaches r to both devices (for
// raw access-latency histograms), and to the controller's epoch sampler.
// Pass nil to detach. Attaching mid-run rebases the per-epoch delta series
// at the current cumulative stats and opens the current epoch's root span;
// every later epoch root is rotated at the checkpoint boundary in
// BeginCheckpoint.
func (c *Controller) SetRecorder(r obs.Recorder) { c.Attach(r, c.epochStart, c.epochID) }

// ReadBlock implements ctl.Controller, recording the end-to-end block read
// latency (table lookup + device) when a recorder is attached.
func (c *Controller) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	done := c.readBlock(now, addr, buf)
	if c.Tele.On() {
		c.Tele.Rec().Latency(obs.HistBlockRead, uint64(done-now))
	}
	return done
}

// WriteBlock implements ctl.Controller, recording the issuer-visible block
// write latency (cycles until the store is acknowledged, not until the
// posted write drains) when a recorder is attached.
func (c *Controller) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	ack := c.writeBlock(now, addr, data)
	if c.Tele.On() {
		c.Tele.Rec().Latency(obs.HistBlockWrite, uint64(ack-now))
	}
	return ack
}

package baseline

import (
	"thynvm/internal/ctl"
	"thynvm/internal/obs"
)

// All baseline controllers accept a telemetry recorder so the same
// instrumented harness runs against ThyNVM and its comparison points.
var (
	_ ctl.Observable = (*Ideal)(nil)
	_ ctl.Observable = (*Journal)(nil)
	_ ctl.Observable = (*Shadow)(nil)
)

// SetRecorder implements ctl.Observable.
func (s *Ideal) SetRecorder(r obs.Recorder) {
	if s.Dev.Spec().Name == "DRAM" {
		s.Dev.SetRecorder(r, obs.HistDRAMRead, obs.HistDRAMWrite)
	} else {
		s.Dev.SetRecorder(r, obs.HistNVMRead, obs.HistNVMWrite)
	}
	s.tele.Attach(r, s.Stats())
	if s.tele.On() {
		r.BeginSpan(obs.TrackCPU, uint64(s.epochSt), obs.SpanEpoch, obs.CauseExec, s.stats.Epochs)
	}
}

// SetRecorder implements ctl.Observable.
func (j *Journal) SetRecorder(r obs.Recorder) {
	j.nvm.SetRecorder(r, obs.HistNVMRead, obs.HistNVMWrite)
	j.dram.SetRecorder(r, obs.HistDRAMRead, obs.HistDRAMWrite)
	j.tele.Attach(r, j.Stats())
	if j.tele.On() {
		r.BeginSpan(obs.TrackCPU, uint64(j.epochSt), obs.SpanEpoch, obs.CauseExec, j.stats.Epochs)
	}
}

// SetRecorder implements ctl.Observable.
func (s *Shadow) SetRecorder(r obs.Recorder) {
	s.nvm.SetRecorder(r, obs.HistNVMRead, obs.HistNVMWrite)
	s.dram.SetRecorder(r, obs.HistDRAMRead, obs.HistDRAMWrite)
	s.tele.Attach(r, s.Stats())
	if s.tele.On() {
		r.BeginSpan(obs.TrackCPU, uint64(s.epochSt), obs.SpanEpoch, obs.CauseExec, s.stats.Epochs)
	}
}

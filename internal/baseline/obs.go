package baseline

import "thynvm/internal/obs"

// SetRecorder implements ctl.Controller.
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

// SetRecorder implements ctl.Controller.
func (j *Journal) SetRecorder(r obs.Recorder) {
	j.nvm.SetRecorder(r, obs.HistNVMRead, obs.HistNVMWrite)
	j.dram.SetRecorder(r, obs.HistDRAMRead, obs.HistDRAMWrite)
	j.tele.Attach(r, j.Stats())
	if j.tele.On() {
		r.BeginSpan(obs.TrackCPU, uint64(j.epochSt), obs.SpanEpoch, obs.CauseExec, j.stats.Epochs)
	}
}

// SetRecorder implements ctl.Controller.
func (s *Shadow) SetRecorder(r obs.Recorder) {
	s.nvm.SetRecorder(r, obs.HistNVMRead, obs.HistNVMWrite)
	s.dram.SetRecorder(r, obs.HistDRAMRead, obs.HistDRAMWrite)
	s.tele.Attach(r, s.Stats())
	if s.tele.On() {
		r.BeginSpan(obs.TrackCPU, uint64(s.epochSt), obs.SpanEpoch, obs.CauseExec, s.stats.Epochs)
	}
}

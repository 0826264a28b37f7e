package main

import (
	"bytes"

	"thynvm/internal/ctl"
	"thynvm/internal/kv"
	"thynvm/internal/mem"
	"thynvm/internal/trace"
)

// The decorators below sit at the program's public boundaries. Each one only
// forwards: the traced run's simulated digest must equal the untraced one.

// latBatch is micro's latency unit: one clock read per this many Next calls.
const latBatch = 256

// batchGen wraps the trace.Generator handed to sim.RunTrace. It always times
// 256-op batches of the stream (micro's latency unit); with a recorder it
// also records a span around every Next.
type batchGen struct {
	trace.Generator
	r    *recorder // nil when untraced
	next int
	n    int64
	last int64
	lat  *[]int64 // batch host times, ns; nil when not collected
}

func (g *batchGen) Next() (trace.Op, bool) {
	if g.n%latBatch == 0 {
		t := nanotime()
		if g.n > 0 && g.lat != nil {
			*g.lat = append(*g.lat, t-g.last)
		}
		g.last = t
		if g.r != nil {
			g.r.unit++
		}
	}
	g.n++
	if g.r == nil {
		return g.Generator.Next()
	}
	g.r.begin(g.next)
	op, ok := g.Generator.Next()
	g.r.end()
	return op, ok
}

// checkedStore wraps the kv.Store handed to kv.RunMixPaused. It keeps a model
// map of every stored value and checks each Get and Delete against it; with
// a recorder it also records a span around every store call.
type checkedStore struct {
	st            kv.Store
	r             *recorder
	get, put, del int
	model         map[uint64][]byte
	bad           bool // the current transaction disagreed with the model
}

func newCheckedStore(st kv.Store, r *recorder) *checkedStore {
	s := &checkedStore{st: st, r: r, model: map[uint64][]byte{}}
	if r != nil {
		s.get = r.id("kv.get", layerKV)
		s.put = r.id("kv.put", layerKV)
		s.del = r.id("kv.delete", layerKV)
	}
	return s
}

func (s *checkedStore) traced() bool { return s.r != nil && s.r.on }

func (s *checkedStore) Put(key uint64, val []byte) error {
	if s.traced() {
		s.r.begin(s.put)
	}
	err := s.st.Put(key, val)
	if s.traced() {
		s.r.end()
	}
	if err == nil {
		s.model[key] = append(s.model[key][:0], val...)
	}
	return err
}

func (s *checkedStore) Get(key uint64) ([]byte, bool, error) {
	if s.traced() {
		s.r.begin(s.get)
	}
	got, ok, err := s.st.Get(key)
	if s.traced() {
		s.r.end()
	}
	if err == nil {
		want, has := s.model[key]
		if ok != has || !bytes.Equal(got, want) {
			s.bad = true
		}
	}
	return got, ok, err
}

func (s *checkedStore) Delete(key uint64) (bool, error) {
	if s.traced() {
		s.r.begin(s.del)
	}
	ok, err := s.st.Delete(key)
	if s.traced() {
		s.r.end()
	}
	if err == nil {
		if _, has := s.model[key]; ok != has {
			s.bad = true
		}
		delete(s.model, key)
	}
	return ok, err
}

func (s *checkedStore) Len() (uint64, error) { return s.st.Len() }

// memSpy wraps the kv.Memory (the sim.Machine) handed to the stores: the
// machine-call boundary of the kv workload.
type memSpy struct {
	m      kv.Memory
	r      *recorder
	rd, wr int
}

func newMemSpy(m kv.Memory, r *recorder) *memSpy {
	return &memSpy{m: m, r: r, rd: r.id("sim.read", layerCache), wr: r.id("sim.write", layerCache)}
}

func (s *memSpy) Read(addr uint64, buf []byte) {
	if !s.r.on {
		s.m.Read(addr, buf)
		return
	}
	s.r.begin(s.rd)
	s.m.Read(addr, buf)
	s.r.end()
}

func (s *memSpy) Write(addr uint64, data []byte) {
	if !s.r.on {
		s.m.Write(addr, data)
		return
	}
	s.r.begin(s.wr)
	s.m.Write(addr, data)
	s.r.end()
}

// ctlSpy wraps the ctl.Controller under a sim.Machine. Besides a span per
// controller call it brackets each machine checkpoint: CheckpointDue
// answering true opens sim.ckpt and cache.flush, whose children are the
// flush's WriteBlock calls; BeginCheckpoint closes the flush and, after its
// own span, the checkpoint.
type ctlSpy struct {
	ctl.Controller
	r                         *recorder
	rd, wr, due, begin, drain int
	ckpt, flush               int
	flushing                  bool
}

func newCtlSpy(c ctl.Controller, r *recorder, kind string) *ctlSpy {
	layer := layerBaseline
	if kind == "thynvm" {
		layer = layerCore
	}
	p := "ctl." + kind + "."
	return &ctlSpy{
		Controller: c,
		r:          r,
		rd:         r.id(p+"read", layer),
		wr:         r.id(p+"write", layer),
		due:        r.id(p+"due", layer),
		begin:      r.id(p+"begin_ckpt", layer),
		drain:      r.id(p+"drain", layer),
		ckpt:       r.id("sim.ckpt", layerSim),
		flush:      r.id("cache.flush", layerCache),
	}
}

func (c *ctlSpy) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	if !c.r.on {
		return c.Controller.ReadBlock(now, addr, buf)
	}
	c.r.begin(c.rd)
	done := c.Controller.ReadBlock(now, addr, buf)
	c.r.end()
	return done
}

func (c *ctlSpy) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	if !c.r.on {
		return c.Controller.WriteBlock(now, addr, data)
	}
	c.r.begin(c.wr)
	ack := c.Controller.WriteBlock(now, addr, data)
	c.r.end()
	return ack
}

func (c *ctlSpy) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	if !c.r.on {
		return c.Controller.CheckpointDue(now, cpuDirty)
	}
	c.r.begin(c.due)
	due := c.Controller.CheckpointDue(now, cpuDirty)
	c.r.end()
	if due {
		c.r.begin(c.ckpt)
		c.r.begin(c.flush)
		c.flushing = true
	}
	return due
}

func (c *ctlSpy) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	if !c.r.on {
		return c.Controller.BeginCheckpoint(now, cpuState)
	}
	open := c.flushing
	if open {
		c.r.end() // cache.flush
		c.flushing = false
	}
	c.r.begin(c.begin)
	resume := c.Controller.BeginCheckpoint(now, cpuState)
	c.r.end()
	if open {
		c.r.end() // sim.ckpt
	}
	return resume
}

func (c *ctlSpy) DrainCheckpoint(now mem.Cycle) mem.Cycle {
	if !c.r.on {
		return c.Controller.DrainCheckpoint(now)
	}
	c.r.begin(c.drain)
	done := c.Controller.DrainCheckpoint(now)
	c.r.end()
	return done
}

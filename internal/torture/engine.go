package torture

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"thynvm"
	"thynvm/internal/ctl"
	"thynvm/internal/mem"
	"thynvm/internal/verify"
)

// Outcome is the result of executing one schedule.
type Outcome struct {
	Violation string // empty = consistent

	Checkpoints uint64 // epoch boundaries taken
	Crashes     uint64 // crash ops executed
	Matches     uint64 // recoveries that matched a snapshot
	ColdStarts  uint64 // recoveries that legitimately found no checkpoint
	Restarts    uint64 // recovery attempts interrupted by a crash-during-recovery
	TearsFired  uint64 // at-crash metadata tears that actually hit a persist
	Injected    uint64 // silent fault activations

	// Degraded-mode verdict taxonomy. Every crash yields exactly one
	// verdict: cold, clean, fallback:N, unrecoverable, or violation.
	// Unrecoverable is a *clean refusal* under armed media faults or tears
	// — it halts the schedule (the system declined to come back up)
	// without counting as a violation; the violation verdict marks the
	// failure the campaign exists to rule out, a recovered image matching
	// no snapshot (silent corruption).
	Clean         uint64   // recoveries classified recovered-clean that matched a snapshot
	Fallbacks     uint64   // recoveries that fell back past damaged generations
	MaxFallback   int      // deepest fallback depth observed
	Unrecoverable uint64   // accepted detected-unrecoverable refusals (0 or 1; halts the schedule)
	MediaFaults   uint64   // media faults that actually landed in the durable image
	Verdicts      []string // per-crash verdict shape, in crash order

	FinalCycle mem.Cycle
}

// engine executes one schedule on one observably fresh system: its cache
// levels and storage chunks may be ones an earlier schedule's system
// released, and its scratch an earlier schedule's, which nothing the
// schedule observes can tell.
type engine struct {
	s    *Schedule
	sys  *thynvm.System
	ctrl ctl.Controller
	out  *Outcome
	isID bool // ideal system: engine-side crash-instant verification

	tearFired bool // a tear hit a persist at the current crash
	tearEver  bool // any tear fired over the schedule's lifetime
	mediaEver bool // any media fault landed over the schedule's lifetime
	halted    bool // an accepted unrecoverable refusal ended the schedule

	*scratch
}

// scratch is the memory a schedule's engine hands to the next schedule's:
// the oracle, emptied by Reset, and two buffers every schedule rewrites
// before it reads them.
type scratch struct {
	o *verify.Oracle
	// model is an ideal system's expected image: every write of the
	// schedule applied in order to a zeroed footprint.
	model []byte
	// payload stages each write's data, each read's destination and the
	// pages an ideal system's crash check reads back.
	payload []byte
}

// scratchPool holds the scratch of finished schedules. Each scratch serves
// one schedule at a time and is reset before use, so no outcome depends
// on which schedule, or which goroutine, used it last.
//
//thynvm:allow-concurrency a pool of engine scratch; each scratch moves whole to one schedule at a time
var scratchPool sync.Pool

// takeScratch returns a finished schedule's scratch, its oracle reset and
// its model zeroed to footprint bytes (none when footprint is 0), or a new
// one.
func takeScratch(footprint uint64) *scratch {
	//thynvm:allow-concurrency takes a whole finished schedule's scratch (see scratchPool)
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{o: verify.New()}
	}
	sc.o.Reset()
	if uint64(cap(sc.model)) < footprint {
		sc.model = make([]byte, footprint)
	} else {
		sc.model = sc.model[:footprint]
		clear(sc.model)
	}
	return sc
}

// Run executes a schedule and reports its outcome. A non-nil error means
// the schedule itself was invalid; consistency violations are reported in
// Outcome.Violation so the campaign can log, replay and shrink them.
func Run(s *Schedule) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kind, err := thynvm.ParseSystem(s.System)
	if err != nil {
		return nil, err
	}
	isIdeal := kind == thynvm.SystemIdealDRAM || kind == thynvm.SystemIdealNVM
	sys, err := thynvm.NewSystem(kind, thynvm.Options{
		PhysBytes:  s.PhysBytes,
		EpochLen:   time.Duration(s.EpochNs) * time.Nanosecond,
		BTTEntries: s.BTT,
		PTTEntries: s.PTT,
		// The ideal systems promise crash consistency at no cost, which
		// only holds when no volatile cache sits above the device; with
		// caches the harness would lose dirty lines the premise says
		// survive. Run them cacheless so the premise is checkable.
		NoCaches:    isIdeal,
		Generations: s.Gens,
		// Media-fault schedules need block checksums: without them media
		// damage is undetectable by construction.
		Integrity: s.Media != nil,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var footprint uint64
	if isIdeal {
		footprint = s.Footprint
	}
	sc := takeScratch(footprint)
	//thynvm:allow-concurrency hands the scratch to the next schedule (see scratchPool)
	defer scratchPool.Put(sc)
	e := &engine{s: s, sys: sys, ctrl: sys.Machine.Controller(), out: &Outcome{}, isID: isIdeal, scratch: sc}

	sys.Machine.PreCheckpoint = func(m *thynvm.Machine) {
		e.o.Capture(m.Controller(), fmt.Sprintf("ckpt-%d", e.out.Checkpoints), m.Now())
	}
	sys.Machine.PostCheckpoint = func(m *thynvm.Machine) {
		at := m.Now()
		if inFlight, done := e.ctrl.CommitAt(); inFlight {
			// Background commit: durable once the header persist
			// completes — unless a crash preempts it, which the oracle
			// sees as CommittedAt > crashAt.
			at = done
		}
		e.o.SetCommitted(len(e.o.Snapshots())-1, at)
		e.out.Checkpoints++
	}
	e.armInject()

	for i := range s.Ops {
		if err := e.step(&s.Ops[i]); err != nil {
			e.out.Violation = err.Error()
			break
		}
		if e.halted {
			break
		}
	}
	e.out.FinalCycle = sys.Machine.Now()
	return e.out, nil
}

// armInject installs the silent-corruption fault (the deliberately injected
// bug) when the schedule asks for one.
func (e *engine) armInject() {
	inj := e.s.Inject
	if inj == nil {
		return
	}
	count := 0
	e.ctrl.SetWriteFault(func(addr uint64, cp []byte, src mem.WriteSource) []byte {
		if src != mem.SrcCheckpoint {
			return nil
		}
		switch kind := e.ctrl.MetadataKind(addr); inj.Target {
		case TargetHeader:
			if kind != ctl.MetaHeader {
				return nil
			}
		case TargetTable:
			if kind != ctl.MetaTable {
				return nil
			}
		case TargetData:
			if kind != ctl.MetaNone {
				return nil
			}
		}
		count++
		if count != inj.Nth {
			return nil
		}
		e.out.Injected++
		return damage(cp, inj.TruncTo, inj.FlipBit)
	})
}

// damage applies a truncation or bit flip to a persist payload, in place
// where possible. Used by both silent faults and at-crash tears.
func damage(data []byte, truncTo, flipBit int) []byte {
	if truncTo > 0 {
		if truncTo < len(data) {
			return data[:truncTo]
		}
		return data
	}
	i := (flipBit / 8) % len(data)
	data[i] ^= 1 << (flipBit % 8)
	return data
}

// clampAddr folds an op address into the workload footprint so shrinker
// edits and hand-written seeds stay executable.
func (e *engine) clampAddr(addr uint64, n int) uint64 {
	limit := e.s.Footprint - uint64(n)
	if limit == 0 {
		return 0
	}
	return addr % (limit + 1)
}

func (e *engine) step(op *Op) error {
	m := e.sys.Machine
	switch op.Kind {
	case OpWrite:
		addr := e.clampAddr(op.Addr, op.Len)
		data := e.stage(op.Len)
		for j := range data {
			data[j] = op.Val + byte(j)
		}
		m.Write(addr, data)
		e.o.RecordWrite(addr, op.Len)
		if e.isID {
			copy(e.model[addr:], data)
		}
	case OpRead:
		addr := e.clampAddr(op.Addr, op.Len)
		m.Read(addr, e.stage(op.Len))
	case OpCompute:
		m.Compute(op.N)
	case OpCheckpoint:
		m.Checkpoint()
	case OpCrash:
		return e.crash(op)
	}
	return nil
}

// stage returns the schedule's payload buffer cut to n bytes.
func (e *engine) stage(n int) []byte {
	if cap(e.payload) < n {
		e.payload = make([]byte, n)
	}
	return e.payload[:n]
}

// crash executes one crash op: optional checkpoint-overlap placement, an
// optional at-crash metadata tear, the power failure itself, any armed
// crash-during-recovery cuts, recovery, and the consistency verdict.
func (e *engine) crash(op *Op) error {
	m := e.sys.Machine
	e.out.Crashes++

	if op.Overlap {
		// Adversarial placement: open a checkpoint and crash while its
		// background drain is still in flight (ThyNVM's overlap window).
		m.Checkpoint()
	}

	e.tearFired = false
	if op.Tear != nil {
		tear := *op.Tear
		e.ctrl.SetCrashFault(func(addr uint64, data []byte) []byte {
			if e.tearFired {
				return nil // in-flight and not the target: lost, as on a real crash
			}
			kind := e.ctrl.MetadataKind(addr)
			if (tear.Target == TargetHeader && kind != ctl.MetaHeader) ||
				(tear.Target == TargetTable && kind != ctl.MetaTable) ||
				(tear.Target == TargetData && kind != ctl.MetaNone) {
				return nil
			}
			e.tearFired = true
			cp := append([]byte(nil), data...)
			return damage(cp, tear.TruncTo, tear.FlipBit)
		})
	}
	m.SetRecoverCrashPoints(op.Cuts)

	crashAt := m.CrashNow()
	if e.tearFired {
		e.out.TearsFired++
		e.tearEver = true
		// The newest snapshot's commit was in flight (its persist got
		// torn): it may still decode — a legitimate recovery point — but
		// is no longer a guaranteed floor.
		if snaps := e.o.Snapshots(); len(snaps) > 0 {
			newest := len(snaps) - 1
			if snaps[newest].CommittedAt > crashAt {
				e.o.MarkFaulted(newest)
			}
		}
	}
	e.injectMedia()

	restartsBefore := m.RecoveryRestarts()
	hadCkpt, err := m.Recover()
	e.out.Restarts += m.RecoveryRestarts() - restartsBefore
	e.ctrl.SetCrashFault(nil)
	if err != nil {
		if errors.Is(err, ctl.ErrUnrecoverable) && (e.mediaEver || e.tearEver) {
			// A clean refusal under armed faults: the scheme detected
			// damage it cannot repair and declined to serve a possibly
			// wrong image. That is the contract — the schedule ends here.
			e.out.Unrecoverable++
			e.out.Verdicts = append(e.out.Verdicts, "unrecoverable")
			e.halted = true
			return nil
		}
		return fmt.Errorf("crash at cycle %d: recovery failed: %v", crashAt, err)
	}

	if e.isID {
		// Ideal systems preserve the crash-instant image by assumption:
		// every write the schedule made, in order. Read it back a page at
		// a time.
		page := e.stage(mem.PageSize)
		for addr := uint64(0); addr < e.s.Footprint; addr += mem.PageSize {
			want := e.model[addr:min(addr+mem.PageSize, e.s.Footprint)]
			m.Peek(addr, page[:len(want)])
			if !bytes.Equal(page[:len(want)], want) {
				e.out.Verdicts = append(e.out.Verdicts, "violation")
				return fmt.Errorf("crash at cycle %d: ideal system lost the crash-instant image", crashAt)
			}
		}
		e.out.Matches++
		e.out.Clean++
		e.out.Verdicts = append(e.out.Verdicts, "clean")
		return nil
	}

	idx, verr := e.o.Check(m.Controller(), crashAt, hadCkpt)
	if verr != nil {
		e.out.Verdicts = append(e.out.Verdicts, "violation")
		return fmt.Errorf("crash at cycle %d: %v", crashAt, verr)
	}
	if idx < 0 {
		e.out.ColdStarts++
		e.out.Verdicts = append(e.out.Verdicts, "cold")
	} else {
		e.out.Matches++
		if rep := m.LastRecovery(); rep.Class == ctl.RecoveredFallback {
			e.out.Fallbacks++
			if rep.FallbackDepth > e.out.MaxFallback {
				e.out.MaxFallback = rep.FallbackDepth
			}
			e.out.Verdicts = append(e.out.Verdicts, fmt.Sprintf("fallback:%d", rep.FallbackDepth))
		} else {
			e.out.Clean++
			e.out.Verdicts = append(e.out.Verdicts, "clean")
		}
		// Recovery consolidated this snapshot's content into the home
		// region: it is durable from here on, even if its own commit had
		// been torn.
		e.o.Solidify(idx, crashAt)
	}
	// The timeline diverged: snapshots the recovered run never reached are
	// stale.
	e.o.PruneAfter(idx)
	return nil
}

// injectMedia lands the schedule's media faults in the durable image, after
// the power failure and before recovery. The per-crash seed is derived from
// the directive's seed and the crash ordinal, so each crash of a multi-crash
// schedule damages different places — deterministically. Once any fault has
// landed, no oracle snapshot remains a guaranteed floor.
func (e *engine) injectMedia() {
	mf := e.s.Media
	if mf == nil {
		return
	}
	st := e.ctrl.NVMStorage()
	seed := mix64(mf.Seed + e.out.Crashes)
	var hit []uint64
	if mf.Kind == "dead" {
		hit = st.InjectDeadChunks(seed, mf.Count)
	} else {
		hit = st.InjectBitRot(seed, mf.Count)
	}
	if len(hit) > 0 {
		e.out.MediaFaults += uint64(len(hit))
		e.mediaEver = true
		e.o.MarkAllFaulted()
	}
}

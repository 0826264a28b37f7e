package commit

import (
	"fmt"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

// Scan is the state of a scheme's retained generations after a crash: the
// newest one whose header and blob both verify, the damage found in the
// others, and the durable floor.
//
// Damage is attributed before it weighs on the verdict, because torn
// in-flight writes and media faults have opposite contracts:
//
//   - An undecodable slot with no media read failure under it is a commit
//     torn by the crash itself. That commit was never acknowledged, so
//     ignoring the slot loses nothing durable.
//   - An undecodable slot whose read tripped the integrity layer is media
//     damage; whatever it held may have been acknowledged.
//   - A slot whose header decodes but whose blob fails its checksum (or
//     cannot lie in the device) proves an acknowledged commit existed: the
//     header is ordered after its blob, so a durable valid header implies
//     the blob was durable once. Damage there is either normal rotation wear
//     (a newer commit recycled the blob area: seq below the newest intact)
//     or destroyed committed data (seq at or above it).
type Scan struct {
	Found    bool   // some generation's header and blob both verify
	Best     Header // the newest such generation
	BestBlob []byte // its blob

	Torn        int // torn unacknowledged commits: harmless crash wear
	MediaDamage int // undecodable slots under a media read failure
	BlobDamage  int // decodable header, damaged blob: an acked commit lost
	Depth       int // damaged generations newer than Best: walked past

	// Floor is the durable generation-safety floor (0 with the guard off or
	// never raised); after Verdict, the floor recovery resumes from.
	Floor        uint64
	GuardDamaged bool

	sys   string
	slots int
}

// Scan reads every header slot, the blob each valid header names, and the
// guard, starting at cycle t, and classifies them. It returns the scan and
// the cycle its last read completed.
func (m *Meta) Scan(nvm *mem.Device, t mem.Cycle) (Scan, mem.Cycle) {
	sc := Scan{sys: m.sys, slots: len(m.headers)}
	type slotDamage struct {
		blind bool
		seq   uint64
	}
	damaged := make([]slotDamage, 0, len(m.headers))
	rec := make([]byte, RecordSize)
	for _, addr := range m.headers {
		base := m.ReadFailures()
		t = nvm.Read(t, addr, rec)
		if allZero(rec) {
			continue // never written
		}
		h, err := m.magic.DecodeHeader(rec)
		if err != nil {
			if m.ReadFailures() != base {
				sc.MediaDamage++
				damaged = append(damaged, slotDamage{blind: true})
			} else {
				sc.Torn++
			}
			continue
		}
		// A blob longer than everything ever written to the device cannot
		// have been committed (and reading it would allocate without bound).
		if !m.SlotOK(h.BlobAddr, h.BlobLen) || h.BlobLen > m.store.FootprintBytes() {
			sc.BlobDamage++
			damaged = append(damaged, slotDamage{seq: h.Seq})
			continue
		}
		blob := make([]byte, h.BlobLen)
		t = nvm.Read(t, h.BlobAddr, blob)
		if mem.Checksum(blob) != h.BlobSum {
			sc.BlobDamage++
			damaged = append(damaged, slotDamage{seq: h.Seq})
			continue
		}
		if !sc.Found || h.Seq > sc.Best.Seq {
			sc.Found, sc.Best, sc.BestBlob = true, h, blob
		}
	}
	for _, d := range damaged {
		// A stale slot whose blob area was recycled by a newer commit is
		// normal wear of the rotation, not a walked-past generation.
		if d.blind || !sc.Found || d.seq > sc.Best.Seq {
			sc.Depth++
		}
	}
	if m.Guard.on {
		t = nvm.Read(t, m.Guard.addr, rec)
		if !allZero(rec) {
			floor, err := m.magic.DecodeGuard(rec)
			sc.Floor, sc.GuardDamaged = floor, err != nil
		}
	}
	return sc, t
}

// Verdict applies the degraded-mode decision table. A refusal returns the
// Unrecoverable report and an error wrapping ctl.ErrUnrecoverable.
// Otherwise recovery proceeds — a cold start when nothing ever committed
// (!Found), else to generation Best with the guard resumed at Floor — and
// the report is the one to record once it has.
func (sc *Scan) Verdict() (ctl.RecoveryReport, error) {
	realDamage := sc.MediaDamage + sc.BlobDamage
	if sc.GuardDamaged {
		if realDamage > 0 {
			// Without a trustworthy floor, falling back past the newest
			// generation cannot be proven safe.
			return sc.Refuse("generation guard and %d retained slot(s) damaged", realDamage)
		}
		// Every slot is intact or merely torn: recovering to the newest is
		// always safe.
		if sc.Found {
			sc.Floor = sc.Best.Seq
		}
	}
	if !sc.Found {
		if realDamage > 0 || sc.Floor > 0 {
			// Acknowledged checkpoints existed (damaged committed slots or
			// a raised floor prove it); restarting from the initial image
			// would silently lose them. Torn slots alone do not refuse:
			// they were never acknowledged.
			return sc.Refuse("no intact checkpoint among %d retained slot(s)", sc.slots)
		}
		return ctl.RecoveryReport{Class: ctl.RecoveredClean, ColdStart: true}, nil
	}
	if sc.Best.Seq < sc.Floor {
		return sc.Refuse("newest intact checkpoint %d predates the generation-safety floor %d",
			sc.Best.Seq, sc.Floor)
	}
	rep := ctl.RecoveryReport{Generation: sc.Best.Seq, FallbackDepth: sc.Depth}
	if sc.Depth > 0 {
		rep.Class = ctl.RecoveredFallback
	}
	return rep, nil
}

// Refuse returns the Unrecoverable report for this recovery and an error,
// prefixed with the scheme's name, that wraps ctl.ErrUnrecoverable.
func (sc *Scan) Refuse(format string, args ...any) (ctl.RecoveryReport, error) {
	args = append(args, ctl.ErrUnrecoverable)
	return ctl.RecoveryReport{Class: ctl.Unrecoverable, FallbackDepth: sc.Depth},
		fmt.Errorf(sc.sys+": "+format+": %w", args...)
}

// Scrub is the integrity check of the software-visible image [0, PhysBytes)
// before software sees it, a no-op with integrity off: anything media faults
// damaged that recovery did not rewrite refuses the recovery.
func (m *Meta) Scrub(sc *Scan) (ctl.RecoveryReport, error) {
	if !m.integ {
		return ctl.RecoveryReport{}, nil
	}
	fails := len(m.store.VerifyRange(0, m.phys))
	if fails == 0 {
		return ctl.RecoveryReport{}, nil
	}
	var rep ctl.RecoveryReport
	var err error
	if sc.Found {
		rep, err = sc.Refuse("%d corrupt block(s) in the recovered image of generation %d", fails, sc.Best.Seq)
	} else {
		rep, err = sc.Refuse("%d corrupt block(s) in the initial image", fails)
	}
	rep.ChecksumFailures = fails
	return rep, err
}

// allZero reports whether a record slot was never written (as opposed to
// damaged: nonzero but failing validation).
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

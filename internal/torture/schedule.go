// Package torture is a deterministic crash-torture fuzzing campaign for the
// five simulated memory systems: it generates randomized schedules of
// writes, checkpoints and crashes — including multi-crash sequences, crashes
// during recovery, and torn metadata persists — executes them against the
// consistency oracle, and shrinks any violation to a minimal replayable
// seed. The same seed produces a byte-identical campaign log at any worker
// count.
package torture

import (
	"fmt"
	"strconv"
	"strings"

	"thynvm/internal/mem"
)

// FaultTarget selects which class of NVM persist a fault applies to.
type FaultTarget int

const (
	// TargetHeader is a checkpoint commit header persist.
	TargetHeader FaultTarget = iota
	// TargetTable is a translation-table/journal blob persist.
	TargetTable
	// TargetData is checkpoint data traffic (block/page content). Only
	// meaningful for silent faults: silently corrupting checkpointed data
	// is the canonical injected bug the oracle must catch.
	TargetData
)

func (t FaultTarget) String() string {
	switch t {
	case TargetHeader:
		return "header"
	case TargetTable:
		return "table"
	case TargetData:
		return "data"
	}
	return fmt.Sprintf("target(%d)", int(t))
}

func parseTarget(s string) (FaultTarget, error) {
	switch s {
	case "header":
		return TargetHeader, nil
	case "table":
		return TargetTable, nil
	case "data":
		return TargetData, nil
	}
	return 0, fmt.Errorf("torture: unknown fault target %q", s)
}

// SilentFault silently corrupts the Nth matching checkpoint persist (1-based)
// without any crash: the device acknowledges the write but stores damaged
// bytes. No scheme claims to survive this — it is the deliberately injected
// consistency bug used to prove the oracle and campaign detect real damage.
// Exactly one of TruncTo/FlipBit is used: TruncTo > 0 persists only that
// prefix; otherwise FlipBit flips that bit of the payload.
type SilentFault struct {
	Target  FaultTarget
	Nth     int
	TruncTo int
	FlipBit int
}

// Tear damages the in-flight metadata persist of the matching kind at a
// crash instant (a torn write). This is within the fault model the schemes
// must survive: recovery must either reject the torn metadata (checksum)
// or the tear must be harmless (don't-care bytes).
type Tear struct {
	Target  FaultTarget
	TruncTo int
	FlipBit int
}

// MediaFault is the schedule's media-damage directive: after every crash,
// before recovery, Count faults of the given kind are injected into the
// durable image at seeded-deterministic positions (the per-crash seed is
// derived from Seed and the crash ordinal, so multi-crash schedules damage
// different places each time). A schedule with media faults runs its system
// with integrity mode on — without checksums media damage is undetectable
// by construction — and accepts detected-unrecoverable refusals; what it
// must never see is a recovered image matching no snapshot.
type MediaFault struct {
	Kind  string // bitrot | dead
	Seed  uint64
	Count int
}

// OpKind is one schedule step.
type OpKind int

const (
	// OpWrite stores Len bytes derived from Val at Addr.
	OpWrite OpKind = iota
	// OpRead loads Len bytes at Addr (advances time, exercises caches).
	OpRead
	// OpCompute executes N compute instructions.
	OpCompute
	// OpCheckpoint forces an epoch boundary.
	OpCheckpoint
	// OpCrash injects a power failure, then recovers and verifies.
	OpCrash
)

// Op is one step of a schedule.
type Op struct {
	Kind OpKind
	Addr uint64
	Len  int
	Val  byte
	N    uint64

	// Crash-op modifiers.
	Overlap bool        // force a checkpoint first, so the crash lands in the overlap window
	Cuts    []mem.Cycle // crash-during-recovery instants, one per recovery attempt
	Tear    *Tear       // torn metadata persist at the crash instant
}

// Schedule is one self-contained torture run: a system configuration plus
// an op sequence. Schedules round-trip through the canonical text seed
// format (Encode/Parse) used by the corpus and the shrinker.
type Schedule struct {
	System    string // thynvm | idealdram | idealnvm | journal | shadow
	Label     string
	PhysBytes uint64
	EpochNs   uint64
	BTT, PTT  int
	Footprint uint64
	Gens      int // retained checkpoint generations (0 = scheme default pair)
	Media     *MediaFault
	Inject    *SilentFault
	Ops       []Op
}

// Clone deep-copies the schedule (the shrinker mutates candidates).
func (s *Schedule) Clone() *Schedule {
	c := *s
	if s.Inject != nil {
		inj := *s.Inject
		c.Inject = &inj
	}
	if s.Media != nil {
		m := *s.Media
		c.Media = &m
	}
	c.Ops = make([]Op, len(s.Ops))
	for i, op := range s.Ops {
		c.Ops[i] = op
		if op.Tear != nil {
			t := *op.Tear
			c.Ops[i].Tear = &t
		}
		if len(op.Cuts) > 0 {
			c.Ops[i].Cuts = append([]mem.Cycle(nil), op.Cuts...)
		}
	}
	return &c
}

func faultMode(trunc, flip int) string {
	if trunc > 0 {
		return fmt.Sprintf("trunc:%d", trunc)
	}
	return fmt.Sprintf("flip:%d", flip)
}

// Encode renders the schedule in the canonical seed format.
func (s *Schedule) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "thynvm-torture v1\n")
	fmt.Fprintf(&b, "system %s\n", s.System)
	if s.Label != "" {
		fmt.Fprintf(&b, "label %s\n", s.Label)
	}
	fmt.Fprintf(&b, "phys %d\n", s.PhysBytes)
	fmt.Fprintf(&b, "epoch_ns %d\n", s.EpochNs)
	fmt.Fprintf(&b, "btt %d\n", s.BTT)
	fmt.Fprintf(&b, "ptt %d\n", s.PTT)
	fmt.Fprintf(&b, "footprint %d\n", s.Footprint)
	if s.Gens != 0 {
		fmt.Fprintf(&b, "gens %d\n", s.Gens)
	}
	if s.Media != nil {
		fmt.Fprintf(&b, "media %s:%d:%d\n", s.Media.Kind, s.Media.Seed, s.Media.Count)
	}
	if s.Inject != nil {
		fmt.Fprintf(&b, "inject %s %d %s\n", s.Inject.Target, s.Inject.Nth,
			faultMode(s.Inject.TruncTo, s.Inject.FlipBit))
	}
	for _, op := range s.Ops {
		switch op.Kind {
		case OpWrite:
			fmt.Fprintf(&b, "op w %d %d %d\n", op.Addr, op.Len, op.Val)
		case OpRead:
			fmt.Fprintf(&b, "op r %d %d\n", op.Addr, op.Len)
		case OpCompute:
			fmt.Fprintf(&b, "op c %d\n", op.N)
		case OpCheckpoint:
			fmt.Fprintf(&b, "op k\n")
		case OpCrash:
			b.WriteString("op x")
			if op.Overlap {
				b.WriteString(" overlap")
			}
			if len(op.Cuts) > 0 {
				parts := make([]string, len(op.Cuts))
				for i, c := range op.Cuts {
					parts[i] = strconv.FormatUint(uint64(c), 10)
				}
				fmt.Fprintf(&b, " cuts=%s", strings.Join(parts, ","))
			}
			if op.Tear != nil {
				fmt.Fprintf(&b, " tear=%s:%s", op.Tear.Target,
					faultMode(op.Tear.TruncTo, op.Tear.FlipBit))
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("end\n")
	return b.String()
}

func parseFaultMode(s string) (trunc, flip int, err error) {
	mode, arg, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("torture: bad fault mode %q", s)
	}
	v, err := strconv.Atoi(arg)
	if err != nil {
		return 0, 0, fmt.Errorf("torture: bad fault argument %q", s)
	}
	switch mode {
	case "trunc":
		if v <= 0 {
			return 0, 0, fmt.Errorf("torture: trunc wants a positive length, got %d", v)
		}
		return v, 0, nil
	case "flip":
		if v < 0 {
			return 0, 0, fmt.Errorf("torture: flip wants a non-negative bit, got %d", v)
		}
		return 0, v, nil
	}
	return 0, 0, fmt.Errorf("torture: unknown fault mode %q", mode)
}

// Parse decodes a canonical seed. It accepts exactly what Encode emits,
// plus blank lines and #-comments.
func Parse(text string) (*Schedule, error) {
	s := &Schedule{}
	sawHeader, sawEnd := false, false
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sawEnd {
			return nil, fmt.Errorf("torture: line %d: content after end", ln+1)
		}
		if !sawHeader {
			if line != "thynvm-torture v1" {
				return nil, fmt.Errorf("torture: line %d: want header %q, got %q", ln+1, "thynvm-torture v1", line)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("torture: line %d (%q): %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		needInt := func(f string) (int, error) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return 0, errf("bad integer %q", f)
			}
			return v, nil
		}
		needU64 := func(f string) (uint64, error) {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return 0, errf("bad integer %q", f)
			}
			return v, nil
		}
		var err error
		switch fields[0] {
		case "system":
			if len(fields) != 2 {
				return nil, errf("want: system <name>")
			}
			s.System = fields[1]
		case "label":
			if len(fields) != 2 {
				return nil, errf("want: label <name>")
			}
			s.Label = fields[1]
		case "phys":
			if len(fields) != 2 {
				return nil, errf("want: phys <bytes>")
			}
			if s.PhysBytes, err = needU64(fields[1]); err != nil {
				return nil, err
			}
		case "epoch_ns":
			if len(fields) != 2 {
				return nil, errf("want: epoch_ns <ns>")
			}
			if s.EpochNs, err = needU64(fields[1]); err != nil {
				return nil, err
			}
		case "btt":
			if len(fields) != 2 {
				return nil, errf("want: btt <entries>")
			}
			if s.BTT, err = needInt(fields[1]); err != nil {
				return nil, err
			}
		case "ptt":
			if len(fields) != 2 {
				return nil, errf("want: ptt <entries>")
			}
			if s.PTT, err = needInt(fields[1]); err != nil {
				return nil, err
			}
		case "footprint":
			if len(fields) != 2 {
				return nil, errf("want: footprint <bytes>")
			}
			if s.Footprint, err = needU64(fields[1]); err != nil {
				return nil, err
			}
		case "gens":
			if len(fields) != 2 {
				return nil, errf("want: gens <n>")
			}
			if s.Gens, err = needInt(fields[1]); err != nil {
				return nil, err
			}
		case "media":
			if len(fields) != 2 {
				return nil, errf("want: media <bitrot|dead>:<seed>:<count>")
			}
			m, merr := parseMedia(fields[1])
			if merr != nil {
				return nil, errf("%v", merr)
			}
			s.Media = m
		case "inject":
			if len(fields) != 4 {
				return nil, errf("want: inject <target> <nth> <mode:arg>")
			}
			f := &SilentFault{}
			if f.Target, err = parseTarget(fields[1]); err != nil {
				return nil, errf("%v", err)
			}
			if f.Nth, err = needInt(fields[2]); err != nil {
				return nil, err
			}
			if f.TruncTo, f.FlipBit, err = parseFaultMode(fields[3]); err != nil {
				return nil, errf("%v", err)
			}
			s.Inject = f
		case "op":
			op, err := parseOp(fields[1:], errf)
			if err != nil {
				return nil, err
			}
			s.Ops = append(s.Ops, op)
		case "end":
			sawEnd = true
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("torture: missing header")
	}
	if !sawEnd {
		return nil, fmt.Errorf("torture: missing end")
	}
	return s, s.Validate()
}

// parseMedia decodes kind:seed:count, e.g. "bitrot:7:40" or "dead:3:2".
func parseMedia(spec string) (*MediaFault, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("torture: bad media spec %q: want kind:seed:count", spec)
	}
	m := &MediaFault{Kind: parts[0]}
	if m.Kind != "bitrot" && m.Kind != "dead" {
		return nil, fmt.Errorf("torture: unknown media fault kind %q", m.Kind)
	}
	seed, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("torture: bad media seed %q", parts[1])
	}
	m.Seed = seed
	if m.Count, err = strconv.Atoi(parts[2]); err != nil || m.Count <= 0 {
		return nil, fmt.Errorf("torture: media count %q must be a positive integer", parts[2])
	}
	return m, nil
}

func parseOp(fields []string, errf func(string, ...any) error) (Op, error) {
	if len(fields) == 0 {
		return Op{}, errf("empty op")
	}
	switch fields[0] {
	case "w":
		if len(fields) != 4 {
			return Op{}, errf("want: op w <addr> <len> <val>")
		}
		addr, err1 := strconv.ParseUint(fields[1], 10, 64)
		n, err2 := strconv.Atoi(fields[2])
		val, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil || val < 0 || val > 255 {
			return Op{}, errf("bad write operands")
		}
		return Op{Kind: OpWrite, Addr: addr, Len: n, Val: byte(val)}, nil
	case "r":
		if len(fields) != 3 {
			return Op{}, errf("want: op r <addr> <len>")
		}
		addr, err1 := strconv.ParseUint(fields[1], 10, 64)
		n, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return Op{}, errf("bad read operands")
		}
		return Op{Kind: OpRead, Addr: addr, Len: n}, nil
	case "c":
		if len(fields) != 2 {
			return Op{}, errf("want: op c <n>")
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return Op{}, errf("bad compute operand")
		}
		return Op{Kind: OpCompute, N: n}, nil
	case "k":
		if len(fields) != 1 {
			return Op{}, errf("op k takes no operands")
		}
		return Op{Kind: OpCheckpoint}, nil
	case "x":
		op := Op{Kind: OpCrash}
		for _, f := range fields[1:] {
			switch {
			case f == "overlap":
				op.Overlap = true
			case strings.HasPrefix(f, "cuts="):
				for _, part := range strings.Split(strings.TrimPrefix(f, "cuts="), ",") {
					v, err := strconv.ParseUint(part, 10, 64)
					if err != nil {
						return Op{}, errf("bad cut %q", part)
					}
					op.Cuts = append(op.Cuts, mem.Cycle(v))
				}
			case strings.HasPrefix(f, "tear="):
				spec := strings.TrimPrefix(f, "tear=")
				tgt, rest, ok := strings.Cut(spec, ":")
				if !ok {
					return Op{}, errf("want tear=<target>:<mode>:<arg>")
				}
				t := &Tear{}
				var err error
				if t.Target, err = parseTarget(tgt); err != nil {
					return Op{}, errf("%v", err)
				}
				if t.TruncTo, t.FlipBit, err = parseFaultMode(rest); err != nil {
					return Op{}, errf("%v", err)
				}
				op.Tear = t
			default:
				return Op{}, errf("unknown crash modifier %q", f)
			}
		}
		return op, nil
	}
	return Op{}, errf("unknown op %q", fields[0])
}

// Validate checks the schedule is executable.
func (s *Schedule) Validate() error {
	switch s.System {
	case "thynvm", "idealdram", "idealnvm", "journal", "shadow":
	default:
		return fmt.Errorf("torture: unknown system %q", s.System)
	}
	if s.PhysBytes == 0 || s.EpochNs == 0 || s.BTT <= 0 || s.PTT <= 0 {
		return fmt.Errorf("torture: schedule %q: phys/epoch_ns/btt/ptt must be positive", s.Label)
	}
	if s.Footprint == 0 || s.Footprint > s.PhysBytes {
		return fmt.Errorf("torture: schedule %q: footprint %d outside (0, phys %d]", s.Label, s.Footprint, s.PhysBytes)
	}
	if s.Gens != 0 && (s.Gens < 2 || s.Gens > int(mem.BlocksPerPage-1)) {
		return fmt.Errorf("torture: schedule %q: gens %d outside {0} ∪ [2, %d]", s.Label, s.Gens, mem.BlocksPerPage-1)
	}
	if s.Media != nil {
		if s.Media.Kind != "bitrot" && s.Media.Kind != "dead" {
			return fmt.Errorf("torture: schedule %q: unknown media fault kind %q", s.Label, s.Media.Kind)
		}
		if s.Media.Count <= 0 {
			return fmt.Errorf("torture: schedule %q: media count must be positive", s.Label)
		}
	}
	if s.Inject != nil && s.Inject.Nth <= 0 {
		return fmt.Errorf("torture: schedule %q: inject nth must be 1-based positive", s.Label)
	}
	for i, op := range s.Ops {
		switch op.Kind {
		case OpWrite, OpRead:
			if op.Len <= 0 || uint64(op.Len) > s.Footprint {
				return fmt.Errorf("torture: schedule %q op %d: len %d outside (0, footprint]", s.Label, i, op.Len)
			}
		}
	}
	return nil
}

package mem

import (
	"cmp"
	"slices"

	"thynvm/internal/obs"
)

// bank models one independently timed device bank.
//
// Both row-buffer state and occupancy are tracked separately for the read
// stream and the write stream, approximating a read-priority controller
// with write draining (as in the gem5 DRAM model the paper evaluates on):
// posted writes are batched and drained during read-idle slots, so a write
// burst neither destroys the read stream's row locality nor holds reads
// behind it; writes still serialize against each other — so checkpoint
// write-back traffic does contend with the program's own writes — and
// still pay NVM's dirty-row-miss penalty when the write stream moves to a
// new row.
type bank struct {
	readRow       int64 // open row as seen by reads; -1 when none
	writeRow      int64 // last row targeted by the write stream; -1 when none
	writeRowDirty bool  // the write row holds unwritten-back modifications
	readReadyAt   Cycle // earliest cycle the bank can begin a new read
	writeReadyAt  Cycle // earliest cycle the bank can begin draining a write
}

// slot owns one posted write that is scheduled on the banks but not yet
// durable: where it lands, its posting order and its payload. seq is
// 1-based and unique per device; completion order is the heap's, so seq
// is what preserves program order wherever it is observable: overlapping
// forwards, crash replay, settle batches. A reused slot keeps its
// buffer's capacity, so steady-state posts copy into memory the device
// already owns.
type slot struct {
	addr uint64
	seq  uint64
	buf  []byte
}

// pending is one entry of the completion heap, a binary min-heap on done.
// Ties need no order: settling pops every write done by now and sorts the
// batch by seq. Entries hold no pointers, so sifting moves plain words
// with no GC write barriers.
type pending struct {
	done Cycle
	seq  uint64
	slot int32
}

// link is one node of a page bucket's forwarding chain: the chain is
// circular, and next of the newest link is the oldest.
type link struct {
	slot int32
	next int32
}

// pendBuckets sizes the direct-mapped page buckets whose chains index the
// live writes for forwarding. Power of two; 4096 buckets cover 16 MiB of
// distinct pages before aliasing, and the overlap test filters the
// writes of aliased pages out of a shared chain.
const pendBuckets = 4096

// WriteFault intercepts a posted write before it enters the queue (fault
// injection; silent-corruption model: the device acknowledges the full
// write but durably stores something else). It may return nil to pass the
// write through untouched, or a replacement payload — typically a prefix
// (torn tail) or a bit-flipped copy of data. The replacement may alias
// data. Timing, statistics and the ack are unaffected: the hardware
// attempted the full write.
type WriteFault func(addr uint64, data []byte, src WriteSource) []byte

// CrashFault intercepts, at Crash(at), each posted write still in flight
// (completion after the crash instant) — the writes a power failure would
// normally discard entirely. Returning nil keeps that behavior; returning
// a non-empty payload persists it instead, modeling a write that was
// partway through the device pipeline when power failed (torn persist).
// The payload may alias data (e.g. data[:k] for a torn tail).
type CrashFault func(addr uint64, data []byte) []byte

// DeviceStats aggregates traffic and timing counters for one device.
type DeviceStats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	RowHits      uint64
	RowMisses    uint64
	// BytesBySource breaks write bytes down by originator (Figure 8).
	BytesBySource [NumWriteSources]uint64
}

// Device is a banked memory device with row-buffer timing, byte-accurate
// contents and a posted write queue.
//
// Reads are blocking: Read returns the completion cycle. Writes are posted:
// they occupy bank time and become durable at their completion cycle, but
// the issuer continues immediately unless the write queue is full.
// On a crash, writes that have not completed are lost; volatile devices
// additionally lose all contents.
type Device struct {
	spec  DeviceSpec
	banks []bank
	store *Storage

	// The posted-write queue. Each write in flight owns a slot (indices
	// reused through freeSlot); heap orders the slots by completion, so
	// settle pops the writes durable by now and the root is the earliest
	// completion; maxDone is the latest completion in the heap.
	slots    []slot
	freeSlot []int32
	heap     []pending
	seqCtr   uint64 // posting counter; next write gets seqCtr+1
	maxDone  Cycle  // valid while the heap is non-empty

	// chain[b] is the newest link of page bucket b's chain, 0 when no
	// live write covers a page of the bucket. A write links into the chain
	// of every page it covers, at the tail, so each chain is in posting
	// order; a page's writes share a bank and retire nearly in that
	// order, so unlinking finds its link at or next to the head. links[0]
	// is a sentinel, so 0 means none; freeLink heads the free links.
	chain    [pendBuckets]int32
	links    []link
	freeLink int32

	stats DeviceStats

	// Fault-injection hooks (crash-torture); nil in normal operation.
	writeFault WriteFault
	crashFault CrashFault

	// Telemetry: latency observations go to rec when recOn; the flag is
	// cached so the disabled path costs one branch, no interface call.
	rec       obs.Recorder
	recOn     bool
	readHist  obs.HistID
	writeHist obs.HistID
	track     obs.TrackID
}

// NewDevice creates a device with the given spec and empty contents.
func NewDevice(spec DeviceSpec) *Device {
	if spec.Banks <= 0 {
		spec.Banks = 1
	}
	if spec.RowBytes == 0 {
		spec.RowBytes = 8 * 1024
	}
	if spec.WriteQueueCap <= 0 {
		spec.WriteQueueCap = 64
	}
	d := &Device{
		spec:  spec,
		banks: make([]bank, spec.Banks),
		store: NewStorage(),
		links: make([]link, 1),
	}
	for i := range d.banks {
		d.banks[i].readRow = -1
		d.banks[i].writeRow = -1
	}
	return d
}

// Spec returns the device's timing specification.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Storage returns the device's backing store, for media-level operations
// (integrity mode, fault injection, recovery scans).
func (d *Device) Storage() *Storage { return d.store }

// SetRecorder attaches a telemetry recorder; read and write access
// latencies are observed into the histograms, and spans go on the track, of
// the device's kind: DRAM for a spec named "DRAM", NVM otherwise. Passing
// nil (or a recorder whose Enabled is false) detaches instrumentation
// entirely.
func (d *Device) SetRecorder(r obs.Recorder) {
	d.rec = r
	d.recOn = r != nil && r.Enabled()
	d.readHist, d.writeHist, d.track = obs.HistNVMRead, obs.HistNVMWrite, obs.TrackNVM
	if d.spec.Name == "DRAM" {
		d.readHist, d.writeHist, d.track = obs.HistDRAMRead, obs.HistDRAMWrite, obs.TrackDRAM
	}
}

// SetWriteFault installs (or, with nil, removes) a silent-corruption fault
// hook applied to every subsequent posted write.
func (d *Device) SetWriteFault(f WriteFault) { d.writeFault = f }

// SetCrashFault installs (or, with nil, removes) a torn-persist fault hook
// consulted at Crash for writes still in flight.
func (d *Device) SetCrashFault(f CrashFault) { d.crashFault = f }

// Stats returns a copy of the device's counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// ResetStats zeroes the counters without touching contents or timing state.
func (d *Device) ResetStats() { d.stats = DeviceStats{} }

func (d *Device) bankOf(addr uint64) (*bank, int64) {
	row := int64(addr / d.spec.RowBytes)
	return &d.banks[uint64(row)%uint64(len(d.banks))], row
}

// access performs one timed bank access covering [addr, addr+n) and returns
// when it completes. The caller guarantees the range stays within one block.
func (d *Device) access(now Cycle, addr uint64, write bool) (done Cycle) {
	b, row := d.bankOf(addr)
	ready := b.readReadyAt
	if write {
		ready = b.writeReadyAt
	}
	start := maxCycle(now, ready)
	var lat Cycle
	if write {
		if b.writeRow == row {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			if b.writeRowDirty {
				lat = d.spec.RowMissDirty
			} else {
				lat = d.spec.RowMissClean
			}
			d.stats.RowMisses++
			b.writeRow = row
			b.writeRowDirty = false
		}
		b.writeRowDirty = true
	} else {
		if b.readRow == row {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			lat = d.spec.RowMissClean
			d.stats.RowMisses++
			b.readRow = row
		}
	}
	done = start + lat
	if write {
		b.writeReadyAt = done
	} else {
		b.readReadyAt = done
	}
	return done
}

// settle applies every pending write that has completed by cycle now.
//
// The heap-root check skips the queue entirely while no completion has
// been reached — the overwhelmingly common case, since callers settle on
// every access but writes take hundreds of cycles to drain. Skipping is
// unobservable: reads forward pending data over stored bytes (same result
// as applying eagerly). The heavy lifting lives out of line in settleBatch
// so this wrapper stays within the inline budget of its hot callers.
//
//thynvm:hotpath
func (d *Device) settle(now Cycle) {
	if len(d.heap) == 0 || now < d.heap[0].done {
		return
	}
	d.settleBatch(now)
}

// settleBatch retires every write durable by now. Each pop parks the root
// just past the shrinking heap, so the batch ends up behind the live heap
// in reverse completion order. Completion ties and multi-bank writes can
// invert posting order, and the store must see posting order (the later
// write to a byte wins), so the batch is insertion-sorted into descending
// seq — close to linear, since completion order nearly matches posting
// order — and applied from the back.
//
//thynvm:hotpath
func (d *Device) settleBatch(now Cycle) {
	n := len(d.heap)
	h := d.heap
	for len(h) > 0 && h[0].done <= now {
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		h = h[:last]
		siftDown(h)
	}
	d.heap = h
	batch := h[len(h):n]
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j-1].seq < batch[j].seq; j-- {
			batch[j-1], batch[j] = batch[j], batch[j-1]
		}
	}
	for i := len(batch) - 1; i >= 0; i-- {
		si := batch[i].slot
		s := &d.slots[si]
		d.store.Write(s.addr, s.buf)
		d.unchain(si, s)
		d.freeSlot = append(d.freeSlot, si)
	}
}

// siftDown restores the heap order below a new root.
func siftDown(h []pending) {
	if len(h) == 0 {
		return
	}
	x, i := h[0], 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].done < h[c].done {
			c = r
		}
		if x.done <= h[c].done {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// pageSpan returns the pages [lo, hi) that n bytes at addr touch.
func pageSpan(addr uint64, n int) (lo, hi uint64) {
	return addr / PageSize, (addr + uint64(n) + PageSize - 1) / PageSize
}

// chainIn links slot si into the chain of every page its payload covers.
func (d *Device) chainIn(si int32, s *slot) {
	lo, hi := pageSpan(s.addr, len(s.buf))
	for p := lo; p < hi; p++ {
		l := d.freeLink
		if l != 0 {
			d.freeLink = d.links[l].next
		} else {
			l = int32(len(d.links))
			d.links = append(d.links, link{})
		}
		tail := &d.chain[p&(pendBuckets-1)]
		if *tail != 0 {
			d.links[l] = link{slot: si, next: d.links[*tail].next}
			d.links[*tail].next = l
		} else {
			d.links[l] = link{slot: si, next: l}
		}
		*tail = l
	}
}

// unchain unlinks slot si from the chains chainIn linked it into.
func (d *Device) unchain(si int32, s *slot) {
	lo, hi := pageSpan(s.addr, len(s.buf))
	for p := lo; p < hi; p++ {
		tail := &d.chain[p&(pendBuckets-1)]
		prev := *tail
		l := d.links[prev].next
		for d.links[l].slot != si {
			prev, l = l, d.links[l].next
		}
		d.links[prev].next = d.links[l].next
		if l == *tail {
			if prev == l {
				prev = 0 // l was the only link
			}
			*tail = prev
		}
		d.links[l].next = d.freeLink
		d.freeLink = l
	}
}

// Read performs a blocking read of len(buf) bytes at addr and returns the
// completion cycle. Data still in the posted write queue is forwarded.
//
//thynvm:hotpath
func (d *Device) Read(now Cycle, addr uint64, buf []byte) Cycle {
	d.settle(now)
	done := now
	// One bank access per touched block.
	for a := BlockAlign(addr); a < addr+uint64(len(buf)); a += BlockSize {
		if c := d.access(now, a, false); c > done {
			done = c
		}
	}
	d.store.Read(addr, buf)
	d.forwardPending(addr, buf)
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	if d.recOn {
		d.rec.Latency(d.readHist, uint64(done-now))
	}
	return done
}

// ReadBackground performs a low-priority read of len(buf) bytes at addr:
// checkpointing, migration and consolidation transfers that a real
// controller schedules into otherwise-idle device slots, behind demand
// reads. It occupies the bank's background (write-drain) port, so it
// contends with writes and other background work but never delays demand
// reads; it does not disturb the demand-read row state.
func (d *Device) ReadBackground(now Cycle, addr uint64, buf []byte) Cycle {
	d.settle(now)
	done := now
	for a := BlockAlign(addr); a < addr+uint64(len(buf)); a += BlockSize {
		b, row := d.bankOf(a)
		start := maxCycle(now, b.writeReadyAt)
		lat := d.spec.RowMissClean
		if row == b.readRow || row == b.writeRow {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			d.stats.RowMisses++
		}
		c := start + lat
		b.writeReadyAt = c
		if c > done {
			done = c
		}
	}
	d.store.Read(addr, buf)
	d.forwardPending(addr, buf)
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	if d.recOn {
		d.rec.Latency(d.readHist, uint64(done-now))
	}
	return done
}

// forwardPending overlays still-queued write data onto buf, replaying the
// writes that overlap it in posting order (the newest write to a byte
// wins). It walks only the chains of the read's own pages, so a read with
// nothing pending on its pages costs one bucket load per page and stores
// nothing. Each pass replays the oldest overlapping write not yet
// replayed: a chain is in posting order, so its first such link is the
// chain's candidate, and a write linked into several of the read's pages
// replays once.
//
//thynvm:hotpath
func (d *Device) forwardPending(addr uint64, buf []byte) {
	end := addr + uint64(len(buf))
	lo, hi := pageSpan(addr, len(buf))
	var last uint64 // seqs are 1-based, so 0 means none replayed yet
	for {
		var next *slot
		for p := lo; p < hi; p++ {
			tail := d.chain[p&(pendBuckets-1)]
			if tail == 0 {
				continue
			}
			for l := d.links[tail].next; ; l = d.links[l].next {
				s := &d.slots[d.links[l].slot]
				if s.seq > last && s.addr < end && addr < s.addr+uint64(len(s.buf)) {
					if next == nil || s.seq < next.seq {
						next = s
					}
					break
				}
				if l == tail {
					break
				}
			}
		}
		if next == nil {
			return
		}
		forward(addr, buf, next.addr, next.buf)
		last = next.seq
	}
}

// forward overlays src data (at srcAddr) onto dst (at dstAddr) where the
// two ranges overlap.
func forward(dstAddr uint64, dst []byte, srcAddr uint64, src []byte) {
	lo := dstAddr
	if srcAddr > lo {
		lo = srcAddr
	}
	hi := dstAddr + uint64(len(dst))
	if e := srcAddr + uint64(len(src)); e < hi {
		hi = e
	}
	if lo >= hi {
		return
	}
	copy(dst[lo-dstAddr:hi-dstAddr], src[lo-srcAddr:hi-srcAddr])
}

// Write posts a write of data at addr, tagged with its traffic source.
// It returns the cycle at which the issuer may proceed: normally now, or
// later if the write queue was full and the issuer had to stall for the
// oldest write to drain. The write becomes durable at its (internal)
// completion cycle; Flush exposes that instant.
func (d *Device) Write(now Cycle, addr uint64, data []byte, src WriteSource) (ack Cycle) {
	ack, _ = d.WriteAt(now, now, addr, data, src)
	return ack
}

// WriteAt posts a write at wall-clock cycle now that may not issue to the
// banks before issueAt. The distinction matters for background work: a
// checkpoint commit record is posted while the processor is at `now` but
// must not reach the device before the data it covers (`issueAt`). Wall
// clock drives the settle and queue-occupancy logic — a write scheduled in
// the future must stay in the pending queue so that a crash before its
// completion still discards it.
func (d *Device) WriteAt(now, issueAt Cycle, addr uint64, data []byte, src WriteSource) (ack, done Cycle) {
	d.settle(now)
	ack = now
	if len(d.heap) >= d.spec.WriteQueueCap {
		// Stall until the earliest outstanding write completes.
		if d.heap[0].done > ack {
			ack = d.heap[0].done
		}
		d.settle(ack)
		if d.recOn && ack > now {
			// Queue-full backpressure, visible on the device's own track.
			d.rec.BeginSpan(d.track, uint64(now), obs.SpanStall, obs.CauseQueueFull, addr)
			d.rec.EndSpan(d.track, uint64(ack))
		}
	}
	start := maxCycle(ack, issueAt)
	done = start
	for a := BlockAlign(addr); a < addr+uint64(len(data)); a += BlockSize {
		if c := d.access(start, a, true); c > done {
			done = c
		}
	}
	var si int32
	if k := len(d.freeSlot) - 1; k >= 0 {
		si = d.freeSlot[k]
		d.freeSlot = d.freeSlot[:k]
	} else {
		si = int32(len(d.slots))
		d.slots = append(d.slots, slot{})
	}
	s := &d.slots[si]
	s.buf = append(s.buf[:0], data...)
	if d.writeFault != nil {
		if alt := d.writeFault(addr, s.buf, src); alt != nil {
			s.buf = append(s.buf[:0], alt...)
		}
	}
	d.seqCtr++
	s.addr, s.seq = addr, d.seqCtr
	d.chainIn(si, s)
	// A post into an empty queue restarts the running maximum: a crash
	// can restart time below the completions it dropped.
	if len(d.heap) == 0 || done > d.maxDone {
		d.maxDone = done
	}
	d.heap = append(d.heap, pending{})
	i := len(d.heap) - 1
	for ; i > 0 && d.heap[(i-1)/2].done > done; i = (i - 1) / 2 {
		d.heap[i] = d.heap[(i-1)/2]
	}
	d.heap[i] = pending{done: done, seq: s.seq, slot: si}
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(data))
	if src >= 0 && src < NumWriteSources {
		d.stats.BytesBySource[src] += uint64(len(data))
	}
	if d.recOn {
		// Post-to-durable latency, including any queue-full stall and
		// deferred issue.
		d.rec.Latency(d.writeHist, uint64(done-now))
	}
	return ack, done
}

// Flush blocks until every posted write is durable and returns that cycle.
func (d *Device) Flush(now Cycle) Cycle {
	done := d.MaxPendingDone(now)
	d.settle(done)
	return done
}

// MaxPendingDone returns the completion cycle of the latest outstanding
// posted write, or now if none. Checkpointing uses it to order its commit
// record after the whole write queue (the paper's "flush the NVM write
// queue" step) without stalling the issuer. Settling pops a completion
// prefix, so the latest completion stays queued until the queue empties
// and the running maximum needs no scan.
func (d *Device) MaxPendingDone(now Cycle) Cycle {
	if len(d.heap) > 0 && d.maxDone > now {
		return d.maxDone
	}
	return now
}

// PendingWrites reports how many posted writes are not yet durable at now.
func (d *Device) PendingWrites(now Cycle) int {
	d.settle(now)
	return len(d.heap)
}

// Crash models a power failure at cycle at: posted writes that have not
// completed are lost, and volatile devices lose all contents. Bank timing
// state resets (rows closed).
func (d *Device) Crash(at Cycle) {
	// Apply writes durable by the crash instant in posting order (same-
	// address writes serialize on the same bank, so posting order matches
	// durability order there), drop the rest. The heap is about to be
	// emptied, so sort it into posting order in place: torn-persist
	// injectors depend on seeing in-flight writes in the order they were
	// posted. A volatile device loses what it would apply, so it applies
	// nothing, but still offers its in-flight writes to the hook.
	slices.SortFunc(d.heap, bySeq)
	nonVolatile := !d.spec.Volatile
	for _, e := range d.heap {
		s := &d.slots[e.slot]
		if e.done <= at {
			if nonVolatile {
				d.store.Write(s.addr, s.buf)
			}
		} else if d.crashFault != nil {
			// In flight at the crash instant: normally lost outright, but a
			// torn-persist injector may keep a partial/corrupted payload.
			if keep := d.crashFault(s.addr, s.buf); len(keep) > 0 && nonVolatile {
				d.store.Write(s.addr, keep)
			}
		}
		d.freeSlot = append(d.freeSlot, e.slot)
	}
	d.heap = d.heap[:0]
	clear(d.chain[:])
	d.links = d.links[:1]
	d.freeLink = 0
	if d.spec.Volatile {
		d.store.Clear()
	}
	for i := range d.banks {
		d.banks[i] = bank{readRow: -1, writeRow: -1}
	}
}

// Release ends the device's life: every chunk of its store goes to the
// pool the next storage's first writes take chunks from, and the store,
// its integrity state and the banks are dropped. Any later access panics
// instead of reading chunks another storage now owns: a timed access finds
// no bank, an untimed one no store. A second Release does nothing.
func (d *Device) Release() {
	if d.store == nil {
		return
	}
	d.store.release()
	d.store, d.banks = nil, nil
}

// Peek reads contents as they would be after all posted writes drain,
// without advancing time. It is intended for debugging and verification.
func (d *Device) Peek(addr uint64, buf []byte) {
	d.store.Read(addr, buf)
	d.forwardPending(addr, buf)
}

// Poke writes contents directly, bypassing timing. It is intended for
// test setup and recovery bootstrapping (e.g. pre-loading images).
func (d *Device) Poke(addr uint64, data []byte) {
	d.store.Write(addr, data)
}

// DurableSnapshot returns a deep copy of the durable contents only
// (posted-but-incomplete writes excluded), as a crash at `at` would leave
// them. The device itself is not modified.
func (d *Device) DurableSnapshot(at Cycle) *Storage {
	s := d.store.Clone()
	// Replay the writes durable by at in posting order (as settle would)
	// without disturbing the device.
	durable := slices.Clone(d.heap)
	slices.SortFunc(durable, bySeq)
	for _, e := range durable {
		if e.done <= at {
			s.Write(d.slots[e.slot].addr, d.slots[e.slot].buf)
		}
	}
	return s
}

func bySeq(a, b pending) int { return cmp.Compare(a.seq, b.seq) }

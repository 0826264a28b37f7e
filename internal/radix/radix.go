// Package radix provides a page-table-style sparse table keyed by uint64,
// used on the simulator's hottest paths in place of Go maps.
//
// The simulated address space is dense near zero (physical blocks, pages,
// backing-store chunks) with a bump-allocated tail, so a radix layout —
// a growable root directory of mid-level nodes of fixed-size leaves —
// turns every lookup into a few array indexations with no hashing, while
// keeping memory proportional to the touched key range. A mid-level node
// is a slice of leaf pointers grown on demand, so a table whose keys fit
// in one leaf costs that leaf and a few words of directory. A single-entry
// MRU memo in front of the directory walk exploits the dominant access
// pattern (consecutive accesses landing in the same leaf: the same block,
// page, or chunk neighborhood), reducing the common case to one
// indexation.
//
// Iteration (Scan) visits keys in ascending order by construction, using
// per-leaf occupancy bitmaps, so callers that previously collected map
// keys and sorted them get the same deterministic order for free.
//
// Tables are not safe for concurrent use, matching the single-threaded
// simulator core. The zero value is an empty table.
package radix

import "math/bits"

const (
	// leafBits sizes each leaf at 2^leafBits slots, so a leaf covers 32 KB
	// of block-indexed or 2 MB of page-indexed address space. Its bytes
	// depend on the value type: 512 slots keep a pointer- or uint64-valued
	// leaf around 4 KB — one OS page — a uint32-valued one around 2 KB,
	// and a slice-valued one at three times a pointer's.
	leafBits = 9
	leafSize = 1 << leafBits
	leafMask = leafSize - 1

	// midBits caps the mid-level nodes at 2048 leaves, so one mid node
	// spans 2^20 keys and the root directory stays tiny (one slice header
	// per million keys) even for bump-allocated tails far from zero. A
	// mid grows by doubling up to the cap as its keys need it.
	midBits = 11
	midSize = 1 << midBits
	midMask = midSize - 1

	bitmapWords = leafSize / 64
)

// leaf holds one fixed-size run of the key space plus an occupancy bitmap.
// The bitmap, not the value, is authoritative for presence, so zero values
// (nil pointers, slot address 0, count 0) are storable and distinguishable
// from absent keys.
type leaf[V any] struct {
	bits [bitmapWords]uint64
	n    uint32
	val  [leafSize]V
}

// Table is a sparse uint64-keyed table. The zero value is empty and ready
// to use.
type Table[V any] struct {
	root [][]*leaf[V] // mid-level nodes: up to midSize leaves each
	n    int
	memo *leaf[V] // leaf of the most recently accessed key, or nil
	hi   uint64   // key >> leafBits for memo
}

// Len returns the number of keys present.
func (t *Table[V]) Len() int { return t.n }

// lookupLeaf returns the leaf covering k, or nil, without allocating.
// It refreshes the MRU memo on success.
//
//thynvm:hotpath
func (t *Table[V]) lookupLeaf(hi uint64) *leaf[V] {
	ri, mi := hi>>midBits, hi&midMask
	if ri >= uint64(len(t.root)) || mi >= uint64(len(t.root[ri])) {
		return nil
	}
	l := t.root[ri][mi]
	if l != nil {
		t.memo, t.hi = l, hi
	}
	return l
}

// Get returns the value stored at k and whether k is present.
//
//thynvm:hotpath
func (t *Table[V]) Get(k uint64) (V, bool) {
	lo := k & leafMask
	hi := k >> leafBits
	l := t.memo
	if l == nil || hi != t.hi {
		if l = t.lookupLeaf(hi); l == nil {
			var zero V
			return zero, false
		}
	}
	if l.bits[lo>>6]&(1<<(lo&63)) == 0 {
		var zero V
		return zero, false
	}
	return l.val[lo], true
}

// Ref returns a pointer to the slot for k, inserting a zero value if k was
// absent. The pointer is valid until the table is reset; callers may
// mutate the value in place (e.g. increment a counter).
//
//thynvm:hotpath
func (t *Table[V]) Ref(k uint64) *V {
	lo := k & leafMask
	if l := t.memo; l != nil && k>>leafBits == t.hi &&
		l.bits[lo>>6]&(1<<(lo&63)) != 0 {
		return &l.val[lo]
	}
	//thynvm:allow-alloc leafFor allocates once per new leaf, amortized to zero in steady state
	l := t.leafFor(k)
	if l.bits[lo>>6]&(1<<(lo&63)) == 0 {
		l.bits[lo>>6] |= 1 << (lo & 63)
		l.n++
		t.n++
	}
	return &l.val[lo]
}

// Set stores v at k, inserting or overwriting.
//
//thynvm:hotpath
func (t *Table[V]) Set(k uint64, v V) { *t.Ref(k) = v }

// Delete removes k. Deleting an absent key is a no-op. Leaves are kept for
// reuse; Reset releases everything.
//
//thynvm:hotpath
func (t *Table[V]) Delete(k uint64) {
	hi := k >> leafBits
	l := t.memo
	if l == nil || hi != t.hi {
		if l = t.lookupLeaf(hi); l == nil {
			return
		}
	}
	lo := k & leafMask
	if l.bits[lo>>6]&(1<<(lo&63)) == 0 {
		return
	}
	l.bits[lo>>6] &^= 1 << (lo & 63)
	l.n--
	t.n--
	var zero V
	l.val[lo] = zero // drop references so the GC can reclaim values
}

// Reset empties the table and releases all nodes.
func (t *Table[V]) Reset() { *t = Table[V]{} }

// Clear empties the table but retains its allocated node structure, so
// refilling it with keys it has covered before allocates nothing. Values
// are zeroed to release references. Tables recycled across controller
// epochs (per-epoch store counters) use this instead of Reset.
func (t *Table[V]) Clear() {
	for _, m := range t.root {
		for _, l := range m {
			if l != nil {
				*l = leaf[V]{}
			}
		}
	}
	t.n = 0
	t.memo = nil
	t.hi = 0
}

// leafFor returns the leaf covering k, allocating nodes (and growing the
// root directory) as needed.
func (t *Table[V]) leafFor(k uint64) *leaf[V] {
	hi := k >> leafBits
	if t.memo != nil && hi == t.hi {
		return t.memo
	}
	ri, mi := hi>>midBits, int(hi&midMask)
	if ri >= uint64(len(t.root)) {
		root := make([][]*leaf[V], ri+1)
		copy(root, t.root)
		t.root = root
	}
	m := t.root[ri]
	if mi >= len(m) {
		n := max(2*len(m), 1)
		for n <= mi {
			n *= 2
		}
		grown := make([]*leaf[V], min(n, midSize))
		copy(grown, m)
		m = grown
		t.root[ri] = m
	}
	l := m[mi]
	if l == nil {
		l = new(leaf[V])
		m[mi] = l
	}
	t.memo, t.hi = l, hi
	return l
}

// Scan calls f for every present key in ascending key order, stopping
// early if f returns false. f may mutate the visited value (via Ref held
// elsewhere or by Set on the visited key) but must not insert or delete
// other keys during the scan.
func (t *Table[V]) Scan(f func(k uint64, v V) bool) {
	for ri, m := range t.root {
		for mi, l := range m {
			if l == nil || l.n == 0 {
				continue
			}
			base := (uint64(ri)<<midBits | uint64(mi)) << leafBits
			for w := 0; w < bitmapWords; w++ {
				word := l.bits[w]
				for word != 0 {
					b := uint64(bits.TrailingZeros64(word))
					word &= word - 1
					lo := uint64(w)<<6 | b
					if !f(base|lo, l.val[lo]) {
						return
					}
				}
			}
		}
	}
}

// Keys returns all present keys in ascending order.
func (t *Table[V]) Keys() []uint64 {
	out := make([]uint64, 0, t.n)
	t.Scan(func(k uint64, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clone returns a deep-enough copy of the table: the directory and the
// leaves holding keys are duplicated, and each value is passed through dup
// (nil for value types; duplicate referenced storage for pointers and
// slices). Empty leaves, which Delete and Clear keep, are not copied.
func (t *Table[V]) Clone(dup func(V) V) *Table[V] {
	c := &Table[V]{n: t.n}
	if t.n == 0 {
		return c
	}
	c.root = make([][]*leaf[V], len(t.root))
	for ri, m := range t.root {
		for mi, l := range m {
			if l == nil || l.n == 0 {
				continue
			}
			if c.root[ri] == nil {
				c.root[ri] = make([]*leaf[V], len(m))
			}
			nl := new(leaf[V])
			nl.bits = l.bits
			nl.n = l.n
			if dup == nil {
				nl.val = l.val
			} else {
				for w := 0; w < bitmapWords; w++ {
					word := l.bits[w]
					for word != 0 {
						b := uint64(bits.TrailingZeros64(word))
						word &= word - 1
						lo := uint64(w)<<6 | b
						nl.val[lo] = dup(l.val[lo])
					}
				}
			}
			c.root[ri][mi] = nl
		}
	}
	return c
}

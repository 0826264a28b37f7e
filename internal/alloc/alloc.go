// Package alloc provides a simple size-class allocator over a range of the
// simulated physical address space. The key-value stores (internal/kv)
// allocate their nodes and values from it.
//
// The allocator's bookkeeping is program state, not simulated-memory state:
// like any persistent-memory application, the workload must either rebuild
// or persist its allocator metadata. Serialize/Restore integrate with the
// harness's checkpointed program state, so after crash recovery the
// allocator resumes exactly as of the recovered epoch boundary.
package alloc

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Arena hands out 16-byte-aligned extents from [base, base+size).
type Arena struct {
	base uint64
	end  uint64
	next uint64
	free map[uint64][]uint64 // rounded size -> free addresses
}

const align = 16

// New creates an arena over [base, base+size). base must be nonzero so
// that address 0 can serve as the stores' nil pointer.
func New(base, size uint64) (*Arena, error) {
	if base == 0 {
		return nil, fmt.Errorf("alloc: base must be nonzero (0 is the null pointer)")
	}
	if size < align {
		return nil, fmt.Errorf("alloc: size %d too small", size)
	}
	return &Arena{
		base: base,
		end:  base + size,
		next: (base + align - 1) &^ (align - 1),
		free: make(map[uint64][]uint64),
	}, nil
}

// MustNew is New for known-good arguments.
func MustNew(base, size uint64) *Arena {
	a, err := New(base, size)
	if err != nil {
		panic(err)
	}
	return a
}

func roundSize(n int) uint64 {
	r := (uint64(n) + align - 1) &^ (align - 1)
	if r == 0 {
		r = align
	}
	return r
}

// Alloc returns the address of a fresh extent of at least n bytes.
func (a *Arena) Alloc(n int) (uint64, error) {
	sz := roundSize(n)
	if lst := a.free[sz]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		a.free[sz] = lst[:len(lst)-1]
		return addr, nil
	}
	if a.next+sz > a.end {
		return 0, fmt.Errorf("alloc: arena exhausted (%d bytes requested, %d left)", sz, a.end-a.next)
	}
	addr := a.next
	a.next += sz
	return addr, nil
}

// Free returns an extent of n bytes at addr to the arena.
func (a *Arena) Free(addr uint64, n int) {
	sz := roundSize(n)
	a.free[sz] = append(a.free[sz], addr)
}

// InUseBytes reports bytes handed out and not freed.
func (a *Arena) InUseBytes() uint64 {
	used := a.next - a.base
	for sz, lst := range a.free {
		used -= sz * uint64(len(lst))
	}
	return used
}

// Serialize captures the allocator's state for checkpointing.
func (a *Arena) Serialize() []byte {
	sizes := make([]uint64, 0, len(a.free))
	for sz, lst := range a.free {
		if len(lst) > 0 {
			sizes = append(sizes, sz)
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	out := make([]byte, 0, 64)
	var u [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(u[:], v)
		out = append(out, u[:]...)
	}
	put(a.base)
	put(a.end)
	put(a.next)
	put(uint64(len(sizes)))
	for _, sz := range sizes {
		put(sz)
		put(uint64(len(a.free[sz])))
		for _, addr := range a.free[sz] {
			put(addr)
		}
	}
	return out
}

// Restore rebuilds the allocator from Serialize output. The state comes
// back from persistent memory, so Restore refuses any blob Serialize could
// not have written: a zero base, a bump pointer outside [base, end], a size
// class that is not a non-zero multiple of the alignment, a free address
// outside [base, next), a count longer than the blob, or trailing bytes.
func Restore(b []byte) (*Arena, error) {
	off := 0
	next := func() (uint64, error) {
		if off+8 > len(b) {
			return 0, fmt.Errorf("alloc: truncated state at %d", off)
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, nil
	}
	base, err := next()
	if err != nil {
		return nil, err
	}
	end, err := next()
	if err != nil {
		return nil, err
	}
	nx, err := next()
	if err != nil {
		return nil, err
	}
	nsz, err := next()
	if err != nil {
		return nil, err
	}
	if base == 0 || nx < base || nx > end {
		return nil, fmt.Errorf("alloc: bad bounds base %#x next %#x end %#x", base, nx, end)
	}
	a := &Arena{base: base, end: end, next: nx, free: make(map[uint64][]uint64)}
	for i := uint64(0); i < nsz; i++ {
		sz, err := next()
		if err != nil {
			return nil, err
		}
		if sz == 0 || sz%align != 0 {
			return nil, fmt.Errorf("alloc: bad size class %d", sz)
		}
		cnt, err := next()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(b)-off)/8 {
			return nil, fmt.Errorf("alloc: %d free extents of %d bytes overrun the state", cnt, sz)
		}
		lst := make([]uint64, 0, cnt)
		for j := uint64(0); j < cnt; j++ {
			addr, err := next()
			if err != nil {
				return nil, err
			}
			if addr < base || addr >= nx {
				return nil, fmt.Errorf("alloc: free extent %#x outside [%#x, %#x)", addr, base, nx)
			}
			lst = append(lst, addr)
		}
		a.free[sz] = lst
	}
	if off != len(b) {
		return nil, fmt.Errorf("alloc: %d trailing bytes after the state", len(b)-off)
	}
	return a, nil
}

package kv

import (
	"fmt"

	"thynvm/internal/alloc"
)

// RBTree is a red-black tree in simulated persistent memory — the paper's
// second storage benchmark. Every node access is a pointer chase through
// the simulated memory system, which is what gives the red-black tree
// workload its low spatial locality.
//
// Layout:
//
//	header: [magic u64][root u64][count u64]
//	node:   [left u64][right u64][parent u64][key u64]
//	        [color u64][valLen u64][valPtr u64]
//
// Address 0 is the nil leaf (black).
type RBTree struct {
	io    memIO
	arena *alloc.Arena
	head  uint64
}

const (
	rbMagic    = 0x544852425452EE01 // "THRBTR"+v1
	rbNodeSize = 56

	rbLeft   = 0
	rbRight  = 8
	rbParent = 16
	rbKey    = 24
	rbColor  = 32
	rbValLen = 40
	rbValPtr = 48

	red   = 1
	black = 0
)

// NewRBTree creates an empty tree with its header at headerAddr.
func NewRBTree(m Memory, arena *alloc.Arena, headerAddr uint64) (*RBTree, error) {
	io := memIO{m, new([8]byte)}
	io.writeU64(headerAddr, rbMagic)
	io.writeU64(headerAddr+8, 0)
	io.writeU64(headerAddr+16, 0)
	return &RBTree{io: io, arena: arena, head: headerAddr}, nil
}

// OpenRBTree attaches to an existing tree at headerAddr (post-recovery).
func OpenRBTree(m Memory, arena *alloc.Arena, headerAddr uint64) (*RBTree, error) {
	io := memIO{m, new([8]byte)}
	if got := io.readU64(headerAddr); got != rbMagic {
		return nil, fmt.Errorf("kv: no red-black tree at %#x (magic %#x)", headerAddr, got)
	}
	return &RBTree{io: io, arena: arena, head: headerAddr}, nil
}

// ---- field accessors (each is a real simulated-memory access) ----

func (t *RBTree) root() uint64     { return t.io.readU64(t.head + 8) }
func (t *RBTree) setRoot(n uint64) { t.io.writeU64(t.head+8, n) }
func (t *RBTree) left(n uint64) uint64 {
	return t.io.readU64(n + rbLeft)
}
func (t *RBTree) right(n uint64) uint64 {
	return t.io.readU64(n + rbRight)
}
func (t *RBTree) parent(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return t.io.readU64(n + rbParent)
}
func (t *RBTree) key(n uint64) uint64 { return t.io.readU64(n + rbKey) }
func (t *RBTree) color(n uint64) uint64 {
	if n == 0 {
		return black
	}
	return t.io.readU64(n + rbColor)
}
func (t *RBTree) setLeft(n, v uint64)  { t.io.writeU64(n+rbLeft, v) }
func (t *RBTree) setRight(n, v uint64) { t.io.writeU64(n+rbRight, v) }
func (t *RBTree) setParent(n, v uint64) {
	if n != 0 {
		t.io.writeU64(n+rbParent, v)
	}
}
func (t *RBTree) setColor(n, c uint64) {
	if n != 0 {
		t.io.writeU64(n+rbColor, c)
	}
}

func (t *RBTree) search(key uint64) uint64 {
	n := t.root()
	for n != 0 {
		k := t.key(n)
		switch {
		case key == k:
			return n
		case key < k:
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	return 0
}

func (t *RBTree) rotateLeft(x uint64) {
	y := t.right(x)
	yl := t.left(y)
	t.setRight(x, yl)
	t.setParent(yl, x)
	xp := t.parent(x)
	t.setParent(y, xp)
	if xp == 0 {
		t.setRoot(y)
	} else if t.left(xp) == x {
		t.setLeft(xp, y)
	} else {
		t.setRight(xp, y)
	}
	t.setLeft(y, x)
	t.setParent(x, y)
}

func (t *RBTree) rotateRight(x uint64) {
	y := t.left(x)
	yr := t.right(y)
	t.setLeft(x, yr)
	t.setParent(yr, x)
	xp := t.parent(x)
	t.setParent(y, xp)
	if xp == 0 {
		t.setRoot(y)
	} else if t.right(xp) == x {
		t.setRight(xp, y)
	} else {
		t.setLeft(xp, y)
	}
	t.setRight(y, x)
	t.setParent(x, y)
}

// Put implements Store.
func (t *RBTree) Put(key uint64, val []byte) error {
	if n := t.search(key); n != 0 {
		// Update in place when the new value fits (see HashTable.Put).
		oldLen := t.io.readU64(n + rbValLen)
		oldPtr := t.io.readU64(n + rbValPtr)
		if fitsExtent(len(val), oldLen) {
			t.io.m.Write(oldPtr, val)
			t.io.writeU64(n+rbValLen, uint64(len(val)))
			return nil
		}
		newPtr, err := storeValue(t.io, t.arena, val)
		if err != nil {
			return err
		}
		t.io.writeU64(n+rbValLen, uint64(len(val)))
		t.io.writeU64(n+rbValPtr, newPtr)
		t.arena.Free(oldPtr, int(oldLen))
		return nil
	}
	valPtr, err := storeValue(t.io, t.arena, val)
	if err != nil {
		return err
	}
	z, err := t.arena.Alloc(rbNodeSize)
	if err != nil {
		return err
	}
	t.io.writeU64(z+rbLeft, 0)
	t.io.writeU64(z+rbRight, 0)
	t.io.writeU64(z+rbKey, key)
	t.io.writeU64(z+rbColor, red)
	t.io.writeU64(z+rbValLen, uint64(len(val)))
	t.io.writeU64(z+rbValPtr, valPtr)

	// BST insert.
	var y uint64
	x := t.root()
	for x != 0 {
		y = x
		if key < t.key(x) {
			x = t.left(x)
		} else {
			x = t.right(x)
		}
	}
	t.io.writeU64(z+rbParent, y)
	if y == 0 {
		t.setRoot(z)
	} else if key < t.key(y) {
		t.setLeft(y, z)
	} else {
		t.setRight(y, z)
	}
	t.insertFixup(z)
	t.io.writeU64(t.head+16, t.io.readU64(t.head+16)+1)
	return nil
}

func (t *RBTree) insertFixup(z uint64) {
	for {
		zp := t.parent(z)
		if zp == 0 || t.color(zp) == black {
			break
		}
		zpp := t.parent(zp)
		if zp == t.left(zpp) {
			u := t.right(zpp) // uncle
			if t.color(u) == red {
				t.setColor(zp, black)
				t.setColor(u, black)
				t.setColor(zpp, red)
				z = zpp
				continue
			}
			if z == t.right(zp) {
				z = zp
				t.rotateLeft(z)
				zp = t.parent(z)
				zpp = t.parent(zp)
			}
			t.setColor(zp, black)
			t.setColor(zpp, red)
			t.rotateRight(zpp)
		} else {
			u := t.left(zpp)
			if t.color(u) == red {
				t.setColor(zp, black)
				t.setColor(u, black)
				t.setColor(zpp, red)
				z = zpp
				continue
			}
			if z == t.left(zp) {
				z = zp
				t.rotateRight(z)
				zp = t.parent(z)
				zpp = t.parent(zp)
			}
			t.setColor(zp, black)
			t.setColor(zpp, red)
			t.rotateLeft(zpp)
		}
	}
	t.setColor(t.root(), black)
}

// Get implements Store.
func (t *RBTree) Get(key uint64) ([]byte, bool, error) {
	n := t.search(key)
	if n == 0 {
		return nil, false, nil
	}
	vl := t.io.readU64(n + rbValLen)
	vp := t.io.readU64(n + rbValPtr)
	return loadValue(t.io, vp, vl), true, nil
}

// transplant replaces subtree u with subtree v.
func (t *RBTree) transplant(u, v uint64) {
	up := t.parent(u)
	if up == 0 {
		t.setRoot(v)
	} else if u == t.left(up) {
		t.setLeft(up, v)
	} else {
		t.setRight(up, v)
	}
	t.setParent(v, up)
}

func (t *RBTree) minimum(n uint64) uint64 {
	for {
		l := t.left(n)
		if l == 0 {
			return n
		}
		n = l
	}
}

// Delete implements Store.
func (t *RBTree) Delete(key uint64) (bool, error) {
	z := t.search(key)
	if z == 0 {
		return false, nil
	}
	y := z
	yOrigColor := t.color(y)
	var x, xParent uint64
	switch {
	case t.left(z) == 0:
		x = t.right(z)
		xParent = t.parent(z)
		t.transplant(z, x)
	case t.right(z) == 0:
		x = t.left(z)
		xParent = t.parent(z)
		t.transplant(z, x)
	default:
		y = t.minimum(t.right(z))
		yOrigColor = t.color(y)
		x = t.right(y)
		if t.parent(y) == z {
			xParent = y
			t.setParent(x, y)
		} else {
			xParent = t.parent(y)
			t.transplant(y, x)
			t.setRight(y, t.right(z))
			t.setParent(t.right(y), y)
		}
		t.transplant(z, y)
		t.setLeft(y, t.left(z))
		t.setParent(t.left(y), y)
		t.setColor(y, t.color(z))
	}
	if yOrigColor == black {
		t.deleteFixup(x, xParent)
	}
	valLen := t.io.readU64(z + rbValLen)
	valPtr := t.io.readU64(z + rbValPtr)
	t.arena.Free(valPtr, int(valLen))
	t.arena.Free(z, rbNodeSize)
	t.io.writeU64(t.head+16, t.io.readU64(t.head+16)-1)
	return true, nil
}

// deleteFixup restores red-black properties after removing a black node.
// x may be the nil leaf, so its parent is tracked explicitly.
func (t *RBTree) deleteFixup(x, xParent uint64) {
	for x != t.root() && t.color(x) == black {
		if xParent == 0 {
			break
		}
		if x == t.left(xParent) {
			w := t.right(xParent)
			if t.color(w) == red {
				t.setColor(w, black)
				t.setColor(xParent, red)
				t.rotateLeft(xParent)
				w = t.right(xParent)
			}
			if t.color(t.left(w)) == black && t.color(t.right(w)) == black {
				t.setColor(w, red)
				x = xParent
				xParent = t.parent(x)
			} else {
				if t.color(t.right(w)) == black {
					t.setColor(t.left(w), black)
					t.setColor(w, red)
					t.rotateRight(w)
					w = t.right(xParent)
				}
				t.setColor(w, t.color(xParent))
				t.setColor(xParent, black)
				t.setColor(t.right(w), black)
				t.rotateLeft(xParent)
				x = t.root()
				xParent = 0
			}
		} else {
			w := t.left(xParent)
			if t.color(w) == red {
				t.setColor(w, black)
				t.setColor(xParent, red)
				t.rotateRight(xParent)
				w = t.left(xParent)
			}
			if t.color(t.right(w)) == black && t.color(t.left(w)) == black {
				t.setColor(w, red)
				x = xParent
				xParent = t.parent(x)
			} else {
				if t.color(t.left(w)) == black {
					t.setColor(t.right(w), black)
					t.setColor(w, red)
					t.rotateLeft(w)
					w = t.left(xParent)
				}
				t.setColor(w, t.color(xParent))
				t.setColor(xParent, black)
				t.setColor(t.left(w), black)
				t.rotateRight(xParent)
				x = t.root()
				xParent = 0
			}
		}
	}
	t.setColor(x, black)
}

// Len implements Store.
func (t *RBTree) Len() (uint64, error) {
	return t.io.readU64(t.head + 16), nil
}

// checkInvariants validates red-black properties (tests only): root black,
// no red node with a red child, equal black heights. It returns the black
// height.
func (t *RBTree) checkInvariants() (int, error) {
	root := t.root()
	if t.color(root) != black {
		return 0, fmt.Errorf("rbtree: red root")
	}
	return t.checkNode(root, 0, ^uint64(0))
}

func (t *RBTree) checkNode(n uint64, lo, hi uint64) (int, error) {
	if n == 0 {
		return 1, nil
	}
	k := t.key(n)
	if k < lo || k > hi {
		return 0, fmt.Errorf("rbtree: key %d violates BST order [%d,%d]", k, lo, hi)
	}
	if t.color(n) == red {
		if t.color(t.left(n)) == red || t.color(t.right(n)) == red {
			return 0, fmt.Errorf("rbtree: red node %d has red child", k)
		}
	}
	l := t.left(n)
	r := t.right(n)
	if l != 0 && t.parent(l) != n {
		return 0, fmt.Errorf("rbtree: bad parent link at %d", t.key(l))
	}
	if r != 0 && t.parent(r) != n {
		return 0, fmt.Errorf("rbtree: bad parent link at %d", t.key(r))
	}
	var hiL, loR uint64 = k, k
	if k > 0 {
		hiL = k - 1
	}
	if k < ^uint64(0) {
		loR = k + 1
	}
	bl, err := t.checkNode(l, lo, hiL)
	if err != nil {
		return 0, err
	}
	br, err := t.checkNode(r, loR, hi)
	if err != nil {
		return 0, err
	}
	if bl != br {
		return 0, fmt.Errorf("rbtree: black height mismatch at %d (%d vs %d)", k, bl, br)
	}
	h := bl
	if t.color(n) == black {
		h++
	}
	return h, nil
}

var _ Store = (*RBTree)(nil)

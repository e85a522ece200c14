package index

import (
	"encoding/binary"

	"addrkv/internal/arch"
)

// RBTree is a red-black tree over simulated memory in the style of
// GCC's std::map (the paper's "ordered_map" kernel benchmark). Nodes
// are 40-byte blobs {left, right, parent, record VA, color}; keys live
// in the records, so every comparison during descent reads the
// candidate record — the pointer-chasing pattern that gives trees the
// largest addressing overhead in the paper (Figure 13).
//
// The implementation is the classic CLRS algorithm with a shared
// sentinel nil node.
type RBTree struct {
	ctx *Context

	root  arch.Addr
	nilN  arch.Addr // sentinel: black, fields scratch during fixups
	count int

	// Rotations counts structural rotations (diagnostics).
	Rotations uint64
}

const (
	rbNodeSize = 40
	rbBlack    = 0
	rbRed      = 1
)

type rbNode struct {
	left, right, parent arch.Addr
	record              arch.Addr
	color               byte
}

// NewRBTree creates an empty tree.
func NewRBTree(ctx *Context) *RBTree {
	t := &RBTree{ctx: ctx}
	t.nilN = ctx.M.AS.Alloc(rbNodeSize)
	t.writeNode(t.nilN, rbNode{color: rbBlack}, arch.CatTraverse)
	t.root = t.nilN
	return t
}

// Name implements Index.
func (t *RBTree) Name() string { return "rbtree" }

// Len implements Index.
func (t *RBTree) Len() int { return t.count }

func (t *RBTree) readNode(va arch.Addr, cat arch.CostCategory) rbNode {
	var b [rbNodeSize]byte
	t.ctx.M.Read(va, b[:], arch.KindIndex, cat)
	return rbNode{
		left:   arch.Addr(binary.LittleEndian.Uint64(b[0:])),
		right:  arch.Addr(binary.LittleEndian.Uint64(b[8:])),
		parent: arch.Addr(binary.LittleEndian.Uint64(b[16:])),
		record: arch.Addr(binary.LittleEndian.Uint64(b[24:])),
		color:  b[32],
	}
}

func (t *RBTree) writeNode(va arch.Addr, n rbNode, cat arch.CostCategory) {
	var b [rbNodeSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(n.left))
	binary.LittleEndian.PutUint64(b[8:], uint64(n.right))
	binary.LittleEndian.PutUint64(b[16:], uint64(n.parent))
	binary.LittleEndian.PutUint64(b[24:], uint64(n.record))
	b[32] = n.color
	t.ctx.M.Write(va, b[:], arch.KindIndex, cat)
}

// field helpers: single-field updates are 8-byte stores.
func (t *RBTree) setLeft(va, v arch.Addr) {
	t.ctx.M.WriteU64(va, uint64(v), arch.KindIndex, arch.CatTraverse)
}
func (t *RBTree) setRight(va, v arch.Addr) {
	t.ctx.M.WriteU64(va+8, uint64(v), arch.KindIndex, arch.CatTraverse)
}
func (t *RBTree) setParent(va, v arch.Addr) {
	t.ctx.M.WriteU64(va+16, uint64(v), arch.KindIndex, arch.CatTraverse)
}
func (t *RBTree) setRecord(va, v arch.Addr) {
	t.ctx.M.WriteU64(va+24, uint64(v), arch.KindIndex, arch.CatTraverse)
}
func (t *RBTree) setColor(va arch.Addr, c byte) {
	t.ctx.M.Write(va+32, []byte{c}, arch.KindIndex, arch.CatTraverse)
}

// compareAt reads the key of the record at node n and compares the
// probe key against it.
func (t *RBTree) compareAt(n rbNode, key []byte) int {
	return KeyCompare(t.ctx.M, n.record, key, arch.CatTraverse)
}

// Get implements Index: a standard BST descent; each level reads the
// node and then the record key it points to.
func (t *RBTree) Get(key []byte) (arch.Addr, bool) {
	// std::map has no hash, but the comparison-based descent replaces
	// it; CatHash stays zero for trees, as in the paper's breakdown.
	cur := t.root
	for cur != t.nilN {
		n := t.readNode(cur, arch.CatTraverse)
		switch c := t.compareAt(n, key); {
		case c == 0:
			return n.record, true
		case c < 0:
			cur = n.left
		default:
			cur = n.right
		}
	}
	return 0, false
}

// Put implements Index.
func (t *RBTree) Put(key, value []byte) PutResult {
	m := t.ctx.M
	parent := t.nilN
	cur := t.root
	var lastCmp int
	for cur != t.nilN {
		n := t.readNode(cur, arch.CatTraverse)
		lastCmp = t.compareAt(n, key)
		if lastCmp == 0 {
			return t.updateRecord(cur, n.record, key, value)
		}
		parent = cur
		if lastCmp < 0 {
			cur = n.left
		} else {
			cur = n.right
		}
	}
	rec := AllocRecord(m, key, value)
	TouchRecordWrite(m, rec, len(key), len(value))
	nva := m.AS.Alloc(rbNodeSize)
	t.writeNode(nva, rbNode{left: t.nilN, right: t.nilN, parent: parent, record: rec, color: rbRed}, arch.CatTraverse)
	if parent == t.nilN {
		t.root = nva
	} else if lastCmp < 0 {
		t.setLeft(parent, nva)
	} else {
		t.setRight(parent, nva)
	}
	t.insertFixup(nva)
	t.count++
	return PutResult{RecordVA: rec, Inserted: true}
}

func (t *RBTree) updateRecord(nva, rec arch.Addr, key, value []byte) PutResult {
	m := t.ctx.M
	kl, vl := ReadRecordHeader(m, rec, arch.CatData)
	if allocClass(RecordSize(len(key), len(value))) == allocClass(RecordSize(kl, vl)) {
		UpdateValueInPlace(m, rec, kl, value)
		return PutResult{RecordVA: rec}
	}
	newRec := AllocRecord(m, key, value)
	TouchRecordWrite(m, newRec, len(key), len(value))
	t.setRecord(nva, newRec)
	FreeRecord(m, rec, kl, vl)
	return PutResult{RecordVA: newRec, Moved: true, OldVA: rec}
}

func (t *RBTree) leftOf(va arch.Addr) arch.Addr {
	return arch.Addr(t.ctx.M.ReadU64(va, arch.KindIndex, arch.CatTraverse))
}
func (t *RBTree) rightOf(va arch.Addr) arch.Addr {
	return arch.Addr(t.ctx.M.ReadU64(va+8, arch.KindIndex, arch.CatTraverse))
}
func (t *RBTree) parentOf(va arch.Addr) arch.Addr {
	return arch.Addr(t.ctx.M.ReadU64(va+16, arch.KindIndex, arch.CatTraverse))
}
func (t *RBTree) recordOf(va arch.Addr) arch.Addr {
	return arch.Addr(t.ctx.M.ReadU64(va+24, arch.KindIndex, arch.CatTraverse))
}
func (t *RBTree) colorOf(va arch.Addr) byte {
	var b [1]byte
	t.ctx.M.Read(va+32, b[:], arch.KindIndex, arch.CatTraverse)
	return b[0]
}

func (t *RBTree) rotateLeft(x arch.Addr) {
	t.Rotations++
	y := t.rightOf(x)
	yl := t.leftOf(y)
	t.setRight(x, yl)
	if yl != t.nilN {
		t.setParent(yl, x)
	}
	xp := t.parentOf(x)
	t.setParent(y, xp)
	if xp == t.nilN {
		t.root = y
	} else if t.leftOf(xp) == x {
		t.setLeft(xp, y)
	} else {
		t.setRight(xp, y)
	}
	t.setLeft(y, x)
	t.setParent(x, y)
}

func (t *RBTree) rotateRight(x arch.Addr) {
	t.Rotations++
	y := t.leftOf(x)
	yr := t.rightOf(y)
	t.setLeft(x, yr)
	if yr != t.nilN {
		t.setParent(yr, x)
	}
	xp := t.parentOf(x)
	t.setParent(y, xp)
	if xp == t.nilN {
		t.root = y
	} else if t.rightOf(xp) == x {
		t.setRight(xp, y)
	} else {
		t.setLeft(xp, y)
	}
	t.setRight(y, x)
	t.setParent(x, y)
}

func (t *RBTree) insertFixup(z arch.Addr) {
	for {
		zp := t.parentOf(z)
		if zp == t.nilN || t.colorOf(zp) != rbRed {
			break
		}
		zpp := t.parentOf(zp)
		if zp == t.leftOf(zpp) {
			y := t.rightOf(zpp) // uncle
			if t.colorOf(y) == rbRed {
				t.setColor(zp, rbBlack)
				t.setColor(y, rbBlack)
				t.setColor(zpp, rbRed)
				z = zpp
				continue
			}
			if z == t.rightOf(zp) {
				z = zp
				t.rotateLeft(z)
				zp = t.parentOf(z)
				zpp = t.parentOf(zp)
			}
			t.setColor(zp, rbBlack)
			t.setColor(zpp, rbRed)
			t.rotateRight(zpp)
		} else {
			y := t.leftOf(zpp)
			if t.colorOf(y) == rbRed {
				t.setColor(zp, rbBlack)
				t.setColor(y, rbBlack)
				t.setColor(zpp, rbRed)
				z = zpp
				continue
			}
			if z == t.leftOf(zp) {
				z = zp
				t.rotateRight(z)
				zp = t.parentOf(z)
				zpp = t.parentOf(zp)
			}
			t.setColor(zp, rbBlack)
			t.setColor(zpp, rbRed)
			t.rotateLeft(zpp)
		}
	}
	t.setColor(t.root, rbBlack)
}

// Delete implements Index (CLRS RB-DELETE).
func (t *RBTree) Delete(key []byte) bool {
	m := t.ctx.M
	z := t.root
	for z != t.nilN {
		n := t.readNode(z, arch.CatTraverse)
		c := t.compareAt(n, key)
		if c == 0 {
			break
		}
		if c < 0 {
			z = n.left
		} else {
			z = n.right
		}
	}
	if z == t.nilN {
		return false
	}

	rec := t.recordOf(z)
	y := z
	yOrigColor := t.colorOf(y)
	var x arch.Addr
	if t.leftOf(z) == t.nilN {
		x = t.rightOf(z)
		t.transplant(z, x)
	} else if t.rightOf(z) == t.nilN {
		x = t.leftOf(z)
		t.transplant(z, x)
	} else {
		y = t.minimum(t.rightOf(z))
		yOrigColor = t.colorOf(y)
		x = t.rightOf(y)
		if t.parentOf(y) == z {
			t.setParent(x, y) // x may be nil sentinel; parent is scratch
		} else {
			t.transplant(y, x)
			zr := t.rightOf(z)
			t.setRight(y, zr)
			t.setParent(zr, y)
		}
		t.transplant(z, y)
		zl := t.leftOf(z)
		t.setLeft(y, zl)
		t.setParent(zl, y)
		t.setColor(y, t.colorOf(z))
	}
	if yOrigColor == rbBlack {
		t.deleteFixup(x)
	}

	kl, vl := headerFunctional(m.AS, rec)
	FreeRecord(m, rec, kl, vl)
	m.AS.Free(z, rbNodeSize)
	t.count--
	return true
}

func (t *RBTree) transplant(u, v arch.Addr) {
	up := t.parentOf(u)
	if up == t.nilN {
		t.root = v
	} else if u == t.leftOf(up) {
		t.setLeft(up, v)
	} else {
		t.setRight(up, v)
	}
	t.setParent(v, up)
}

func (t *RBTree) minimum(va arch.Addr) arch.Addr {
	for {
		l := t.leftOf(va)
		if l == t.nilN {
			return va
		}
		va = l
	}
}

func (t *RBTree) deleteFixup(x arch.Addr) {
	for x != t.root && t.colorOf(x) == rbBlack {
		xp := t.parentOf(x)
		if x == t.leftOf(xp) {
			w := t.rightOf(xp)
			if t.colorOf(w) == rbRed {
				t.setColor(w, rbBlack)
				t.setColor(xp, rbRed)
				t.rotateLeft(xp)
				xp = t.parentOf(x)
				w = t.rightOf(xp)
			}
			if t.colorOf(t.leftOf(w)) == rbBlack && t.colorOf(t.rightOf(w)) == rbBlack {
				t.setColor(w, rbRed)
				x = xp
			} else {
				if t.colorOf(t.rightOf(w)) == rbBlack {
					t.setColor(t.leftOf(w), rbBlack)
					t.setColor(w, rbRed)
					t.rotateRight(w)
					xp = t.parentOf(x)
					w = t.rightOf(xp)
				}
				t.setColor(w, t.colorOf(xp))
				t.setColor(xp, rbBlack)
				t.setColor(t.rightOf(w), rbBlack)
				t.rotateLeft(xp)
				x = t.root
			}
		} else {
			w := t.leftOf(xp)
			if t.colorOf(w) == rbRed {
				t.setColor(w, rbBlack)
				t.setColor(xp, rbRed)
				t.rotateRight(xp)
				xp = t.parentOf(x)
				w = t.leftOf(xp)
			}
			if t.colorOf(t.rightOf(w)) == rbBlack && t.colorOf(t.leftOf(w)) == rbBlack {
				t.setColor(w, rbRed)
				x = xp
			} else {
				if t.colorOf(t.leftOf(w)) == rbBlack {
					t.setColor(t.rightOf(w), rbBlack)
					t.setColor(w, rbRed)
					t.rotateLeft(w)
					xp = t.parentOf(x)
					w = t.leftOf(xp)
				}
				t.setColor(w, t.colorOf(xp))
				t.setColor(xp, rbBlack)
				t.setColor(t.leftOf(w), rbBlack)
				t.rotateRight(xp)
				x = t.root
			}
		}
	}
	t.setColor(x, rbBlack)
}

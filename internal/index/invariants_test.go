package index

// Structural checks and diagnostics that only this package's tests
// call.

import "addrkv/internal/arch"

// Height returns the tree height in levels.
func (t *BTree) Height() int { return t.height }

// Cap returns the slot count.
func (d *DenseHash) Cap() int { return d.cap }

// CheckInvariants validates B-tree structure: key order, uniform leaf
// depth, and per-node occupancy bounds. It returns the number of keys
// found.
func (t *BTree) CheckInvariants() (int, error) {
	depth := -1
	var walk func(va arch.Addr, level int, lo, hi []byte) (int, error)
	walk = func(va arch.Addr, level int, lo, hi []byte) (int, error) {
		nd := t.readNode(va)
		if va != t.root && (nd.n < btMinKeys || nd.n > btMaxKeys) {
			return 0, errorString("btree: node occupancy out of bounds")
		}
		var prev []byte
		if lo != nil {
			prev = lo
		}
		total := nd.n
		for i := 0; i < nd.n; i++ {
			k := t.recordKeyFunctional(nd.keys[i])
			if prev != nil && string(prev) >= string(k) {
				return 0, errorString("btree: key order violation")
			}
			prev = k
		}
		if hi != nil && prev != nil && string(prev) >= string(hi) {
			return 0, errorString("btree: subtree exceeds upper bound")
		}
		if nd.leaf {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return 0, errorString("btree: leaves at unequal depth")
			}
			return total, nil
		}
		for i := 0; i <= nd.n; i++ {
			var clo, chi []byte
			if i > 0 {
				clo = t.recordKeyFunctional(nd.keys[i-1])
			} else {
				clo = lo
			}
			if i < nd.n {
				chi = t.recordKeyFunctional(nd.keys[i])
			} else {
				chi = hi
			}
			sub, err := walk(nd.children[i], level+1, clo, chi)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	return walk(t.root, 0, nil, nil)
}

// CheckInvariants validates the red-black properties: root is black,
// no red node has a red child, and every root-to-leaf path has the
// same black height. It returns the black height.
func (t *RBTree) CheckInvariants() (int, error) {
	if t.root != t.nilN && t.colorOf(t.root) != rbBlack {
		return 0, errRootRed
	}
	return t.checkFrom(t.root)
}

var (
	errRootRed  = errorString("rbtree: root is red")
	errRedRed   = errorString("rbtree: red node with red child")
	errBlackImb = errorString("rbtree: black-height imbalance")
)

type errorString string

func (e errorString) Error() string { return string(e) }

func (t *RBTree) checkFrom(va arch.Addr) (int, error) {
	if va == t.nilN {
		return 1, nil
	}
	n := t.readNode(va, arch.CatTraverse)
	if n.color == rbRed {
		if t.colorOf(n.left) == rbRed || t.colorOf(n.right) == rbRed {
			return 0, errRedRed
		}
	}
	lh, err := t.checkFrom(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkFrom(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackImb
	}
	if n.color == rbBlack {
		lh++
	}
	return lh, nil
}

// CheckInvariants validates ordering and tower consistency: level-0
// keys strictly ascend, every higher level is a subsequence of level
// 0, and count matches. It returns the key count.
func (s *SkipList) CheckInvariants() (int, error) {
	// Level 0: strict ascending order.
	seen := map[arch.Addr]bool{}
	var prevKey []byte
	n := 0
	for node := s.readForward(s.head, 0); node != 0; node = s.readForward(node, 0) {
		rec, _ := s.readNodeMeta(node)
		k := s.recordKeyFunctional(rec)
		if prevKey != nil && string(prevKey) >= string(k) {
			return 0, errorString("skiplist: level-0 order violation")
		}
		prevKey = k
		seen[node] = true
		n++
	}
	if n != s.count {
		return 0, errorString("skiplist: count mismatch")
	}
	for l := 1; l < s.level; l++ {
		prev := []byte(nil)
		for node := s.readForward(s.head, l); node != 0; node = s.readForward(node, l) {
			if !seen[node] {
				return 0, errorString("skiplist: dangling tower node")
			}
			rec, lvl := s.readNodeMeta(node)
			if lvl <= l {
				return 0, errorString("skiplist: node present above its level")
			}
			k := s.recordKeyFunctional(rec)
			if prev != nil && string(prev) >= string(k) {
				return 0, errorString("skiplist: upper-level order violation")
			}
			prev = k
		}
	}
	return n, nil
}

func (s *SkipList) recordKeyFunctional(rec arch.Addr) []byte {
	kl, _ := headerFunctional(s.ctx.M.AS, rec)
	k := make([]byte, kl)
	s.ctx.M.AS.ReadAt(rec+RecordHeaderSize, k)
	return k
}

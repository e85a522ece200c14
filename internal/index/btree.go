package index

import (
	"encoding/binary"

	"addrkv/internal/arch"
)

// BTree is a B-tree over simulated memory in the style of Google's
// cpp-btree (the paper's "btree" kernel benchmark): 256-byte nodes,
// keys compared through the records they point at. The algorithm is
// CLRS with minimum degree 7 (up to 13 keys and 14 children per node),
// which fills the 256-byte node budget.
type BTree struct {
	ctx *Context

	root   arch.Addr
	count  int
	height int

	// Splits and Merges count structural operations (diagnostics).
	Splits uint64
	Merges uint64
}

const (
	btMinDegree = 7
	btMaxKeys   = 2*btMinDegree - 1 // 13
	btMinKeys   = btMinDegree - 1   // 6
	btNodeSize  = 256

	btOffCount    = 0 // uint16
	btOffLeaf     = 2 // uint8
	btOffKeys     = 8
	btOffChildren = btOffKeys + btMaxKeys*8 // 112
)

type btNode struct {
	leaf     bool
	n        int
	keys     [btMaxKeys]arch.Addr // record VAs, ordered by record key
	children [btMaxKeys + 1]arch.Addr
}

// NewBTree creates an empty tree.
func NewBTree(ctx *Context) *BTree {
	t := &BTree{ctx: ctx, height: 1}
	t.root = ctx.M.AS.Alloc(btNodeSize)
	t.writeNode(t.root, &btNode{leaf: true})
	return t
}

// Name implements Index.
func (t *BTree) Name() string { return "btree" }

// Len implements Index.
func (t *BTree) Len() int { return t.count }

// readMeta performs a timed read of the header and used key slots —
// what a search actually touches.
func (t *BTree) readMeta(va arch.Addr, nd *btNode) {
	m := t.ctx.M
	var hdr [8]byte
	m.Read(va, hdr[:], arch.KindIndex, arch.CatTraverse)
	nd.n = int(binary.LittleEndian.Uint16(hdr[btOffCount:]))
	nd.leaf = hdr[btOffLeaf] != 0
	if nd.n > 0 {
		buf := make([]byte, nd.n*8)
		m.Read(va+btOffKeys, buf, arch.KindIndex, arch.CatTraverse)
		for i := 0; i < nd.n; i++ {
			nd.keys[i] = arch.Addr(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
}

// readChild performs a timed read of one child pointer.
func (t *BTree) readChild(va arch.Addr, idx int) arch.Addr {
	return arch.Addr(t.ctx.M.ReadU64(va+btOffChildren+arch.Addr(idx*8), arch.KindIndex, arch.CatTraverse))
}

// readNode loads a full node image (structural operations).
func (t *BTree) readNode(va arch.Addr) *btNode {
	nd := &btNode{}
	t.readMeta(va, nd)
	if !nd.leaf {
		m := t.ctx.M
		buf := make([]byte, (nd.n+1)*8)
		m.Read(va+btOffChildren, buf, arch.KindIndex, arch.CatTraverse)
		for i := 0; i <= nd.n; i++ {
			nd.children[i] = arch.Addr(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	return nd
}

// writeNode stores a full node image.
func (t *BTree) writeNode(va arch.Addr, nd *btNode) {
	m := t.ctx.M
	var b [btNodeSize]byte
	binary.LittleEndian.PutUint16(b[btOffCount:], uint16(nd.n))
	if nd.leaf {
		b[btOffLeaf] = 1
	}
	for i := 0; i < nd.n; i++ {
		binary.LittleEndian.PutUint64(b[btOffKeys+i*8:], uint64(nd.keys[i]))
	}
	if !nd.leaf {
		for i := 0; i <= nd.n; i++ {
			binary.LittleEndian.PutUint64(b[btOffChildren+i*8:], uint64(nd.children[i]))
		}
	}
	used := btOffChildren
	if !nd.leaf {
		used = btOffChildren + (nd.n+1)*8
	}
	m.Write(va, b[:used], arch.KindIndex, arch.CatTraverse)
}

// searchIn binary-searches key within nd's keys, reading record keys
// for the compares. It returns (index, found): index is the first key
// >= key (or n).
func (t *BTree) searchIn(nd *btNode, key []byte) (int, bool) {
	lo, hi := 0, nd.n
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := KeyCompare(t.ctx.M, nd.keys[mid], key, arch.CatTraverse); {
		case c == 0:
			return mid, true
		case c < 0:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// Get implements Index.
func (t *BTree) Get(key []byte) (arch.Addr, bool) {
	va := t.root
	var nd btNode
	for {
		t.readMeta(va, &nd)
		i, found := t.searchIn(&nd, key)
		if found {
			return nd.keys[i], true
		}
		if nd.leaf {
			return 0, false
		}
		va = t.readChild(va, i)
	}
}

// Put implements Index (CLRS preemptive-split insertion).
func (t *BTree) Put(key, value []byte) PutResult {
	m := t.ctx.M
	// Preemptive root split.
	rootNd := t.readNode(t.root)
	if rootNd.n == btMaxKeys {
		newRoot := m.AS.Alloc(btNodeSize)
		nr := &btNode{leaf: false, n: 0}
		nr.children[0] = t.root
		t.writeNode(newRoot, nr)
		t.splitChild(newRoot, nr, 0, t.root, rootNd)
		t.root = newRoot
		t.height++
		rootNd = nr
	}
	return t.insertNonFull(t.root, rootNd, key, value)
}

// splitChild splits full child c (image cn) of parent p (image pn) at
// child index i. Both images are updated and written back.
func (t *BTree) splitChild(p arch.Addr, pn *btNode, i int, c arch.Addr, cn *btNode) {
	t.Splits++
	m := t.ctx.M
	right := m.AS.Alloc(btNodeSize)
	rn := &btNode{leaf: cn.leaf, n: btMinKeys}
	copy(rn.keys[:btMinKeys], cn.keys[btMinDegree:])
	if !cn.leaf {
		copy(rn.children[:btMinDegree], cn.children[btMinDegree:])
	}
	median := cn.keys[btMinDegree-1]
	cn.n = btMinKeys

	// Shift parent slots right and link the new sibling.
	copy(pn.children[i+2:pn.n+2], pn.children[i+1:pn.n+1])
	pn.children[i+1] = right
	copy(pn.keys[i+1:pn.n+1], pn.keys[i:pn.n])
	pn.keys[i] = median
	pn.n++

	t.writeNode(c, cn)
	t.writeNode(right, rn)
	t.writeNode(p, pn)
}

func (t *BTree) insertNonFull(va arch.Addr, nd *btNode, key, value []byte) PutResult {
	m := t.ctx.M
	for {
		i, found := t.searchIn(nd, key)
		if found {
			return t.updateRecord(va, nd, i, key, value)
		}
		if nd.leaf {
			rec := AllocRecord(m, key, value)
			TouchRecordWrite(m, rec, len(key), len(value))
			copy(nd.keys[i+1:nd.n+1], nd.keys[i:nd.n])
			nd.keys[i] = rec
			nd.n++
			t.writeNode(va, nd)
			t.count++
			return PutResult{RecordVA: rec, Inserted: true}
		}
		cva := nd.children[i]
		cn := t.readNode(cva)
		if cn.n == btMaxKeys {
			t.splitChild(va, nd, i, cva, cn)
			// Re-decide direction against the promoted median.
			switch c := KeyCompare(m, nd.keys[i], key, arch.CatTraverse); {
			case c == 0:
				return t.updateRecord(va, nd, i, key, value)
			case c > 0:
				cva = nd.children[i+1]
				cn = t.readNode(cva)
			default:
				cva = nd.children[i]
				cn = t.readNode(cva)
			}
		}
		va, nd = cva, cn
	}
}

func (t *BTree) updateRecord(va arch.Addr, nd *btNode, i int, key, value []byte) PutResult {
	m := t.ctx.M
	rec := nd.keys[i]
	kl, vl := ReadRecordHeader(m, rec, arch.CatData)
	if allocClass(RecordSize(len(key), len(value))) == allocClass(RecordSize(kl, vl)) {
		UpdateValueInPlace(m, rec, kl, value)
		return PutResult{RecordVA: rec}
	}
	newRec := AllocRecord(m, key, value)
	TouchRecordWrite(m, newRec, len(key), len(value))
	nd.keys[i] = newRec
	t.writeNode(va, nd)
	FreeRecord(m, rec, kl, vl)
	return PutResult{RecordVA: newRec, Moved: true, OldVA: rec}
}

// Delete implements Index (CLRS deletion with borrow/merge).
func (t *BTree) Delete(key []byte) bool {
	m := t.ctx.M
	rec, ok := t.deleteFrom(t.root, key)
	if !ok {
		return false
	}
	// Shrink the root if it emptied.
	rn := t.readNode(t.root)
	if rn.n == 0 && !rn.leaf {
		old := t.root
		t.root = rn.children[0]
		m.AS.Free(old, btNodeSize)
		t.height--
	}
	kl, vl := headerFunctional(m.AS, rec)
	FreeRecord(m, rec, kl, vl)
	t.count--
	return true
}

// deleteFrom removes key from the subtree rooted at va and returns the
// record VA that was unlinked (the caller owns freeing it — records
// promoted into ancestors during case 2 must survive the recursive
// removal of their old leaf slot). The caller guarantees va has more
// than btMinKeys keys unless it is the root.
func (t *BTree) deleteFrom(va arch.Addr, key []byte) (arch.Addr, bool) {
	nd := t.readNode(va)
	i, found := t.searchIn(nd, key)
	if found {
		if nd.leaf {
			// Case 1: unlink from leaf.
			rec := nd.keys[i]
			copy(nd.keys[i:nd.n-1], nd.keys[i+1:nd.n])
			nd.n--
			t.writeNode(va, nd)
			return rec, true
		}
		// Case 2: internal node.
		leftVA := nd.children[i]
		leftN := t.readNode(leftVA)
		rec := nd.keys[i]
		if leftN.n > btMinKeys {
			// 2a: promote the predecessor record into this slot,
			// then unlink it from the left subtree.
			predRec := t.extremeRecord(leftVA, false)
			nd.keys[i] = predRec
			t.writeNode(va, nd)
			if _, ok := t.deleteFrom(leftVA, t.recordKeyFunctional(predRec)); !ok {
				panic("index: btree predecessor vanished")
			}
			return rec, true
		}
		rightVA := nd.children[i+1]
		rightN := t.readNode(rightVA)
		if rightN.n > btMinKeys {
			// 2b: promote the successor record.
			succRec := t.extremeRecord(rightVA, true)
			nd.keys[i] = succRec
			t.writeNode(va, nd)
			if _, ok := t.deleteFrom(rightVA, t.recordKeyFunctional(succRec)); !ok {
				panic("index: btree successor vanished")
			}
			return rec, true
		}
		// 2c: merge children around the key, then recurse.
		t.mergeChildren(va, nd, i, leftVA, leftN, rightVA, rightN)
		return t.deleteFrom(leftVA, key)
	}
	if nd.leaf {
		return 0, false
	}
	return t.deleteFrom(t.childReady(va, nd, i), key)
}

// childReady returns child i of va, first ensuring it has more than
// btMinKeys keys by borrowing from a sibling or merging (CLRS case 3).
// n is va's current image and is updated in place.
func (t *BTree) childReady(va arch.Addr, n *btNode, i int) arch.Addr {
	cva := n.children[i]
	cn := t.readNode(cva)
	if cn.n > btMinKeys {
		return cva
	}
	// Try borrowing from the left sibling.
	if i > 0 {
		lva := n.children[i-1]
		ln := t.readNode(lva)
		if ln.n > btMinKeys {
			// Rotate right through the parent.
			copy(cn.keys[1:cn.n+1], cn.keys[:cn.n])
			cn.keys[0] = n.keys[i-1]
			if !cn.leaf {
				copy(cn.children[1:cn.n+2], cn.children[:cn.n+1])
				cn.children[0] = ln.children[ln.n]
			}
			cn.n++
			n.keys[i-1] = ln.keys[ln.n-1]
			ln.n--
			t.writeNode(lva, ln)
			t.writeNode(cva, cn)
			t.writeNode(va, n)
			return cva
		}
	}
	// Try borrowing from the right sibling.
	if i < n.n {
		rva := n.children[i+1]
		rn := t.readNode(rva)
		if rn.n > btMinKeys {
			cn.keys[cn.n] = n.keys[i]
			if !cn.leaf {
				cn.children[cn.n+1] = rn.children[0]
			}
			cn.n++
			n.keys[i] = rn.keys[0]
			copy(rn.keys[:rn.n-1], rn.keys[1:rn.n])
			if !rn.leaf {
				copy(rn.children[:rn.n], rn.children[1:rn.n+1])
			}
			rn.n--
			t.writeNode(rva, rn)
			t.writeNode(cva, cn)
			t.writeNode(va, n)
			return cva
		}
	}
	// Merge with a sibling.
	if i > 0 {
		lva := n.children[i-1]
		ln := t.readNode(lva)
		t.mergeChildren(va, n, i-1, lva, ln, cva, cn)
		return lva
	}
	rva := n.children[i+1]
	rn := t.readNode(rva)
	t.mergeChildren(va, n, i, cva, cn, rva, rn)
	return cva
}

// mergeChildren merges child i+1 into child i around parent key i
// (both children have btMinKeys keys). Parent image n is updated and
// written back; the right node is freed.
func (t *BTree) mergeChildren(va arch.Addr, n *btNode, i int, lva arch.Addr, ln *btNode, rva arch.Addr, rn *btNode) {
	t.Merges++
	ln.keys[ln.n] = n.keys[i]
	copy(ln.keys[ln.n+1:ln.n+1+rn.n], rn.keys[:rn.n])
	if !ln.leaf {
		copy(ln.children[ln.n+1:ln.n+2+rn.n], rn.children[:rn.n+1])
	}
	ln.n += 1 + rn.n

	copy(n.keys[i:n.n-1], n.keys[i+1:n.n])
	copy(n.children[i+1:n.n], n.children[i+2:n.n+1])
	n.n--

	t.writeNode(lva, ln)
	t.writeNode(va, n)
	t.ctx.M.AS.Free(rva, btNodeSize)
}

// extremeRecord returns the min (first=true) or max record VA of the
// subtree at va.
func (t *BTree) extremeRecord(va arch.Addr, first bool) arch.Addr {
	for {
		nd := t.readNode(va)
		if nd.leaf {
			if first {
				return nd.keys[0]
			}
			return nd.keys[nd.n-1]
		}
		if first {
			va = nd.children[0]
		} else {
			va = nd.children[nd.n]
		}
	}
}

func (t *BTree) recordKeyFunctional(rec arch.Addr) []byte {
	kl, _ := headerFunctional(t.ctx.M.AS, rec)
	k := make([]byte, kl)
	t.ctx.M.AS.ReadAt(rec+RecordHeaderSize, k)
	return k
}

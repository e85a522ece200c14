package index

import (
	"encoding/binary"

	"addrkv/internal/arch"
)

// SkipList is an ordered index in the style of the Redis zset skiplist
// (t_zset.c): towers of forward pointers over a sorted linked list.
// The paper's "Accelerating beyond hash table" section says the STLT
// applies to any structure with get(key)->record semantics; the skip
// list is the natural fourth ordered structure to test that claim on,
// since Redis itself uses one.
//
// Node layout in simulated memory (like zskiplistNode: record pointer,
// level count, then the forward-pointer tower):
//
//	offset 0:  record VA (8 B)
//	offset 8:  level (u16) + 6 B pad
//	offset 16: forward[0..level-1] (8 B each)
//
// A level-L node occupies 16+8L bytes; with the Redis p=1/4 geometric
// level distribution most nodes are level 1 (24 B).
type SkipList struct {
	ctx *Context

	head  arch.Addr // full-height header node (record VA = 0)
	level int       // current max level in use
	count int

	rng uint64
}

const (
	slMaxLevel   = 24 // Redis uses 32; 24 covers 4^24 >> any run here
	slBranchNum  = 1  // p = 1/4, like Redis
	slBranchDen  = 4
	slNodeHeader = 16
)

func slNodeSize(level int) int { return slNodeHeader + 8*level }

// NewSkipList creates an empty skip list.
func NewSkipList(ctx *Context) *SkipList {
	s := &SkipList{ctx: ctx, level: 1, rng: 0x2545F4914F6CDD1D}
	s.head = ctx.M.AS.Alloc(slNodeSize(slMaxLevel))
	s.writeHeader(s.head, 0, slMaxLevel)
	return s
}

// Name implements Index.
func (s *SkipList) Name() string { return "skiplist" }

// Len implements Index.
func (s *SkipList) Len() int { return s.count }

// Level returns the current tower height (diagnostics).
func (s *SkipList) Level() int { return s.level }

func (s *SkipList) writeHeader(va, rec arch.Addr, level int) {
	var b [slNodeHeader]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(rec))
	binary.LittleEndian.PutUint16(b[8:], uint16(level))
	s.ctx.M.Write(va, b[:], arch.KindIndex, arch.CatTraverse)
}

// readNodeMeta performs a timed read of a node's record VA and level.
func (s *SkipList) readNodeMeta(va arch.Addr) (rec arch.Addr, level int) {
	var b [slNodeHeader]byte
	s.ctx.M.Read(va, b[:], arch.KindIndex, arch.CatTraverse)
	return arch.Addr(binary.LittleEndian.Uint64(b[0:])), int(binary.LittleEndian.Uint16(b[8:]))
}

func (s *SkipList) forwardVA(node arch.Addr, lvl int) arch.Addr {
	return node + slNodeHeader + arch.Addr(lvl*8)
}

// readForward performs a timed read of node.forward[lvl].
func (s *SkipList) readForward(node arch.Addr, lvl int) arch.Addr {
	return arch.Addr(s.ctx.M.ReadU64(s.forwardVA(node, lvl), arch.KindIndex, arch.CatTraverse))
}

func (s *SkipList) writeForward(node arch.Addr, lvl int, v arch.Addr) {
	s.ctx.M.WriteU64(s.forwardVA(node, lvl), uint64(v), arch.KindIndex, arch.CatTraverse)
}

// randomLevel draws from the Redis geometric distribution (p = 1/4).
func (s *SkipList) randomLevel() int {
	lvl := 1
	for lvl < slMaxLevel {
		x := s.rng
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.rng = x
		if int(x&0xFFFF) >= (slBranchNum*0x10000)/slBranchDen {
			break
		}
		lvl++
	}
	return lvl
}

// findPredecessors descends from the top level, filling update[l] with
// the rightmost node at level l whose key precedes key. Every key
// comparison reads the candidate's record (timed).
func (s *SkipList) findPredecessors(key []byte, update *[slMaxLevel]arch.Addr) arch.Addr {
	x := s.head
	for l := s.level - 1; l >= 0; l-- {
		for {
			next := s.readForward(x, l)
			if next == 0 {
				break
			}
			rec, _ := s.readNodeMeta(next)
			if KeyCompare(s.ctx.M, rec, key, arch.CatTraverse) <= 0 {
				break // key <= next's key: stop here at this level
			}
			x = next
		}
		update[l] = x
	}
	return x
}

// Get implements Index.
func (s *SkipList) Get(key []byte) (arch.Addr, bool) {
	var update [slMaxLevel]arch.Addr
	x := s.findPredecessors(key, &update)
	next := s.readForward(x, 0)
	if next == 0 {
		return 0, false
	}
	rec, _ := s.readNodeMeta(next)
	if KeyCompare(s.ctx.M, rec, key, arch.CatTraverse) == 0 {
		return rec, true
	}
	return 0, false
}

// Put implements Index.
func (s *SkipList) Put(key, value []byte) PutResult {
	m := s.ctx.M
	var update [slMaxLevel]arch.Addr
	x := s.findPredecessors(key, &update)
	next := s.readForward(x, 0)
	if next != 0 {
		rec, _ := s.readNodeMeta(next)
		if KeyCompare(m, rec, key, arch.CatTraverse) == 0 {
			return s.updateRecord(next, rec, key, value)
		}
	}

	lvl := s.randomLevel()
	if lvl > s.level {
		for l := s.level; l < lvl; l++ {
			update[l] = s.head
		}
		s.level = lvl
	}
	rec := AllocRecord(m, key, value)
	TouchRecordWrite(m, rec, len(key), len(value))
	node := m.AS.Alloc(slNodeSize(lvl))
	s.writeHeader(node, rec, lvl)
	for l := 0; l < lvl; l++ {
		s.writeForward(node, l, s.readForward(update[l], l))
		s.writeForward(update[l], l, node)
	}
	s.count++
	return PutResult{RecordVA: rec, Inserted: true}
}

func (s *SkipList) updateRecord(node, rec arch.Addr, key, value []byte) PutResult {
	m := s.ctx.M
	kl, vl := ReadRecordHeader(m, rec, arch.CatData)
	if allocClass(RecordSize(len(key), len(value))) == allocClass(RecordSize(kl, vl)) {
		UpdateValueInPlace(m, rec, kl, value)
		return PutResult{RecordVA: rec}
	}
	newRec := AllocRecord(m, key, value)
	TouchRecordWrite(m, newRec, len(key), len(value))
	m.WriteU64(node, uint64(newRec), arch.KindIndex, arch.CatTraverse)
	FreeRecord(m, rec, kl, vl)
	return PutResult{RecordVA: newRec, Moved: true, OldVA: rec}
}

// Delete implements Index.
func (s *SkipList) Delete(key []byte) bool {
	m := s.ctx.M
	var update [slMaxLevel]arch.Addr
	x := s.findPredecessors(key, &update)
	target := s.readForward(x, 0)
	if target == 0 {
		return false
	}
	rec, lvl := s.readNodeMeta(target)
	if KeyCompare(m, rec, key, arch.CatTraverse) != 0 {
		return false
	}
	for l := 0; l < lvl; l++ {
		if s.readForward(update[l], l) == target {
			s.writeForward(update[l], l, s.readForward(target, l))
		}
	}
	// Lower the list level while the top levels are empty.
	for s.level > 1 && s.readForward(s.head, s.level-1) == 0 {
		s.level--
	}
	kl, vl := headerFunctional(m.AS, rec)
	FreeRecord(m, rec, kl, vl)
	m.AS.Free(target, slNodeSize(lvl))
	s.count--
	return true
}

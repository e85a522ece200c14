package index

import (
	"addrkv/internal/arch"
)

// DenseHash is an open-addressing hash table in the style of Google's
// dense_hash_map: a flat power-of-two array of slots probed
// quadratically (triangular increments), with a maximum occupancy of
// 50% before growth and tombstone deletion.
//
// dense_hash_map<string, V> stores the pair<string, V> *inline* in the
// table array — with a heap-allocated string body for 24-byte keys —
// so each slot is 40 bytes (string header 32 + value 8). We model
// that: slots are 40-byte strides whose first word is the record VA
// (0 = empty, 1 = tombstone); the key bytes themselves live in the
// record, standing in for the string's heap buffer. The 40-byte
// stride reproduces dense_hash_map's real cache footprint and its
// line-straddling slots.
type DenseHash struct {
	ctx *Context

	table arch.Addr
	cap   int // power of two
	count int // live keys
	used  int // live + tombstones

	// MaxOccupancy is the used/cap ratio that triggers growth
	// (dense_hash_map's default enlarge factor is 0.5).
	MaxOccupancy float64

	// Grows counts rehashes.
	Grows uint64
}

const (
	denseTombstone arch.Addr = 1
	// denseSlotSize is sizeof(pair<std::string, V*>) on a 64-bit
	// libstdc++: 32-byte string header + 8-byte value pointer.
	denseSlotSize = 40
)

// NewDenseHash creates a table presized so that sizeHint keys stay
// under the occupancy bound.
func NewDenseHash(ctx *Context, sizeHint int) *DenseHash {
	n := 32
	for float64(sizeHint) > 0.5*float64(n) {
		n <<= 1
	}
	d := &DenseHash{ctx: ctx, cap: n, MaxOccupancy: 0.5}
	d.table = ctx.M.AS.Alloc(n * denseSlotSize)
	return d
}

// Name implements Index.
func (d *DenseHash) Name() string { return "densehash" }

// Len implements Index.
func (d *DenseHash) Len() int { return d.count }

func (d *DenseHash) slotVA(idx int) arch.Addr { return d.table + arch.Addr(idx*denseSlotSize) }

// readSlot performs a timed read of the whole 40-byte slot (the pair
// the probe inspects) and returns its record VA.
func (d *DenseHash) readSlot(idx int, cat arch.CostCategory) arch.Addr {
	var b [denseSlotSize]byte
	d.ctx.M.Read(d.slotVA(idx), b[:], arch.KindIndex, cat)
	return arch.Addr(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
}

// writeSlotPair performs a timed write of a full slot (constructing the
// inline pair on insert).
func (d *DenseHash) writeSlotPair(idx int, rec arch.Addr) {
	var b [denseSlotSize]byte
	v := uint64(rec)
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	d.ctx.M.Write(d.slotVA(idx), b[:], arch.KindIndex, arch.CatTraverse)
}

// probe iterates quadratically from the hash until visit returns true.
func (d *DenseHash) probeSeq(hash uint64) func() int {
	mask := d.cap - 1
	i := int(hash) & mask
	step := 0
	return func() int {
		r := i
		step++
		i = (i + step) & mask // triangular: h, h+1, h+3, h+6, ...
		return r
	}
}

// Get implements Index.
func (d *DenseHash) Get(key []byte) (arch.Addr, bool) {
	hash := d.ctx.HashKey(key)
	m := d.ctx.M
	next := d.probeSeq(hash)
	for n := 0; n < d.cap; n++ {
		idx := next()
		slot := d.readSlot(idx, arch.CatTraverse)
		if slot == 0 {
			return 0, false
		}
		if slot == denseTombstone {
			continue
		}
		if KeyMatches(m, slot, key, arch.CatTraverse) {
			return slot, true
		}
	}
	return 0, false
}

// Put implements Index.
func (d *DenseHash) Put(key, value []byte) PutResult {
	hash := d.ctx.HashKey(key)
	m := d.ctx.M
	next := d.probeSeq(hash)
	insertAt := -1
	for n := 0; n < d.cap; n++ {
		idx := next()
		slot := d.readSlot(idx, arch.CatTraverse)
		if slot == 0 {
			if insertAt < 0 {
				insertAt = idx
			}
			break
		}
		if slot == denseTombstone {
			if insertAt < 0 {
				insertAt = idx
			}
			continue
		}
		if KeyMatches(m, slot, key, arch.CatTraverse) {
			return d.updateRecord(idx, slot, key, value)
		}
	}
	if insertAt < 0 {
		panic("index: dense hash table full despite occupancy bound")
	}
	rec := AllocRecord(m, key, value)
	TouchRecordWrite(m, rec, len(key), len(value))
	// Reusing a tombstone does not raise used.
	old := arch.Addr(m.AS.ReadU64(d.slotVA(insertAt)))
	if old == 0 {
		d.used++
	}
	d.writeSlotPair(insertAt, rec)
	d.count++
	if float64(d.used) > d.MaxOccupancy*float64(d.cap) {
		d.grow()
	}
	return PutResult{RecordVA: rec, Inserted: true}
}

func (d *DenseHash) updateRecord(idx int, rec arch.Addr, key, value []byte) PutResult {
	m := d.ctx.M
	kl, vl := ReadRecordHeader(m, rec, arch.CatData)
	if allocClass(RecordSize(len(key), len(value))) == allocClass(RecordSize(kl, vl)) {
		UpdateValueInPlace(m, rec, kl, value)
		return PutResult{RecordVA: rec}
	}
	newRec := AllocRecord(m, key, value)
	TouchRecordWrite(m, newRec, len(key), len(value))
	m.WriteU64(d.slotVA(idx), uint64(newRec), arch.KindIndex, arch.CatTraverse)
	FreeRecord(m, rec, kl, vl)
	return PutResult{RecordVA: newRec, Moved: true, OldVA: rec}
}

// Delete implements Index (tombstone deletion, like dense_hash_map's
// set_deleted_key protocol).
func (d *DenseHash) Delete(key []byte) bool {
	hash := d.ctx.HashKey(key)
	m := d.ctx.M
	next := d.probeSeq(hash)
	for n := 0; n < d.cap; n++ {
		idx := next()
		slot := d.readSlot(idx, arch.CatTraverse)
		if slot == 0 {
			return false
		}
		if slot == denseTombstone {
			continue
		}
		if KeyMatches(m, slot, key, arch.CatTraverse) {
			kl, vl := ReadRecordHeader(m, slot, arch.CatTraverse)
			FreeRecord(m, slot, kl, vl)
			m.WriteU64(d.slotVA(idx), uint64(denseTombstone), arch.KindIndex, arch.CatTraverse)
			d.count--
			return true
		}
	}
	return false
}

// grow quadruples the table when occupancy (including tombstones)
// crosses the bound, dropping tombstones. Functional with a coarse
// cycle charge, like ChainHash.grow.
func (d *DenseHash) grow() {
	m := d.ctx.M
	oldT, oldCap := d.table, d.cap
	d.cap <<= 2
	d.table = m.AS.Alloc(d.cap * denseSlotSize)
	d.used = d.count
	d.Grows++
	for i := 0; i < oldCap; i++ {
		rec := arch.Addr(m.AS.ReadU64(oldT + arch.Addr(i*denseSlotSize)))
		if rec == 0 || rec == denseTombstone {
			continue
		}
		kl, _ := headerFunctional(m.AS, rec)
		k := make([]byte, kl)
		m.AS.ReadAt(rec+RecordHeaderSize, k)
		next := d.probeSeq(d.ctx.Hash.Hash(k, d.ctx.Seed))
		for {
			idx := next()
			if m.AS.ReadU64(d.slotVA(idx)) == 0 {
				m.AS.WriteU64(d.slotVA(idx), uint64(rec))
				break
			}
		}
	}
	m.AS.Free(oldT, oldCap*denseSlotSize)
	m.Compute(arch.Cycles(oldCap*12), arch.CatOther)
}

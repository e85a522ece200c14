package index

import (
	"encoding/binary"

	"addrkv/internal/arch"
)

// ChainHash is a chained hash table in the style of the Redis dict and
// GCC's std::unordered_map: a power-of-two bucket array of entry
// pointers, each bucket heading a singly-linked list of 16-byte
// entries {record VA, next VA}. Keys live inside the records
// (Figure 3 of the paper).
type ChainHash struct {
	ctx *Context

	buckets arch.Addr // VA of the bucket array
	nbkts   int       // power of two
	count   int

	// MaxLoadFactor triggers growth when count > nbkts*MaxLoadFactor
	// (Redis grows its dict at load factor 1).
	MaxLoadFactor float64

	// Grows counts table growths (each is a full rehash).
	Grows uint64
}

const chainEntrySize = 16

// NewChainHash creates a table presized for sizeHint keys.
func NewChainHash(ctx *Context, sizeHint int) *ChainHash {
	n := 16
	for n < sizeHint {
		n <<= 1
	}
	h := &ChainHash{ctx: ctx, nbkts: n, MaxLoadFactor: 1.0}
	h.buckets = ctx.M.AS.Alloc(n * 8)
	return h
}

// Name implements Index.
func (h *ChainHash) Name() string { return "chainhash" }

// Len implements Index.
func (h *ChainHash) Len() int { return h.count }

// Buckets returns the current bucket count (diagnostics).
func (h *ChainHash) Buckets() int { return h.nbkts }

func (h *ChainHash) bucketVA(hash uint64) arch.Addr {
	return h.buckets + arch.Addr(int(hash&uint64(h.nbkts-1))*8)
}

// readEntry performs a timed read of a chain entry.
func (h *ChainHash) readEntry(eva arch.Addr, cat arch.CostCategory) (rec, next arch.Addr) {
	var b [chainEntrySize]byte
	h.ctx.M.Read(eva, b[:], arch.KindIndex, cat)
	return arch.Addr(binary.LittleEndian.Uint64(b[0:])), arch.Addr(binary.LittleEndian.Uint64(b[8:]))
}

func (h *ChainHash) writeEntry(eva, rec, next arch.Addr, cat arch.CostCategory) {
	var b [chainEntrySize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(rec))
	binary.LittleEndian.PutUint64(b[8:], uint64(next))
	h.ctx.M.Write(eva, b[:], arch.KindIndex, cat)
}

// Get implements Index: hash, read the bucket head, then walk the
// chain comparing keys record by record.
func (h *ChainHash) Get(key []byte) (arch.Addr, bool) {
	hash := h.ctx.HashKey(key)
	m := h.ctx.M
	eva := arch.Addr(m.ReadU64(h.bucketVA(hash), arch.KindIndex, arch.CatTraverse))
	for eva != 0 {
		rec, next := h.readEntry(eva, arch.CatTraverse)
		if KeyMatches(m, rec, key, arch.CatTraverse) {
			return rec, true
		}
		eva = next
	}
	return 0, false
}

// Put implements Index.
func (h *ChainHash) Put(key, value []byte) PutResult {
	hash := h.ctx.HashKey(key)
	m := h.ctx.M
	bva := h.bucketVA(hash)
	head := arch.Addr(m.ReadU64(bva, arch.KindIndex, arch.CatTraverse))
	for eva := head; eva != 0; {
		rec, next := h.readEntry(eva, arch.CatTraverse)
		if KeyMatches(m, rec, key, arch.CatTraverse) {
			return h.updateRecord(eva, rec, key, value)
		}
		eva = next
	}
	// New key: allocate the record and push a fresh entry at the
	// chain head, as the Redis dict does.
	rec := AllocRecord(m, key, value)
	TouchRecordWrite(m, rec, len(key), len(value))
	eva := m.AS.Alloc(chainEntrySize)
	h.writeEntry(eva, rec, head, arch.CatTraverse)
	m.WriteU64(bva, uint64(eva), arch.KindIndex, arch.CatTraverse)
	h.count++
	if float64(h.count) > float64(h.nbkts)*h.MaxLoadFactor {
		h.grow()
	}
	return PutResult{RecordVA: rec, Inserted: true}
}

// updateRecord rewrites the value in place when the new record size
// stays within the old allocation class, otherwise moves the record —
// the event that obliges an STLT refresh.
func (h *ChainHash) updateRecord(eva, rec arch.Addr, key, value []byte) PutResult {
	m := h.ctx.M
	kl, vl := ReadRecordHeader(m, rec, arch.CatData)
	oldSize := RecordSize(kl, vl)
	newSize := RecordSize(len(key), len(value))
	if allocClass(newSize) == allocClass(oldSize) {
		UpdateValueInPlace(m, rec, kl, value)
		return PutResult{RecordVA: rec}
	}
	newRec := AllocRecord(m, key, value)
	TouchRecordWrite(m, newRec, len(key), len(value))
	m.WriteU64(eva, uint64(newRec), arch.KindIndex, arch.CatTraverse)
	FreeRecord(m, rec, kl, vl)
	return PutResult{RecordVA: newRec, Moved: true, OldVA: rec}
}

// Delete implements Index.
func (h *ChainHash) Delete(key []byte) bool {
	hash := h.ctx.HashKey(key)
	m := h.ctx.M
	bva := h.bucketVA(hash)
	prev := arch.Addr(0)
	eva := arch.Addr(m.ReadU64(bva, arch.KindIndex, arch.CatTraverse))
	for eva != 0 {
		rec, next := h.readEntry(eva, arch.CatTraverse)
		if KeyMatches(m, rec, key, arch.CatTraverse) {
			if prev == 0 {
				m.WriteU64(bva, uint64(next), arch.KindIndex, arch.CatTraverse)
			} else {
				// Patch prev.next (second word of prev's entry).
				m.WriteU64(prev+8, uint64(next), arch.KindIndex, arch.CatTraverse)
			}
			kl, vl := ReadRecordHeader(m, rec, arch.CatTraverse)
			FreeRecord(m, rec, kl, vl)
			m.AS.Free(eva, chainEntrySize)
			h.count--
			return true
		}
		prev, eva = eva, next
	}
	return false
}

// grow doubles the bucket array and rehashes every entry. The rehash
// runs functionally with a coarse cycle charge — Redis amortizes this
// incrementally; modeling the full stall would over-penalize the
// baseline we compare against.
func (h *ChainHash) grow() {
	m := h.ctx.M
	oldB, oldN := h.buckets, h.nbkts
	h.nbkts <<= 1
	h.buckets = m.AS.Alloc(h.nbkts * 8)
	h.Grows++
	var k []byte // one key buffer for the whole rehash
	for i := 0; i < oldN; i++ {
		eva := arch.Addr(m.AS.ReadU64(oldB + arch.Addr(i*8)))
		for eva != 0 {
			var b [chainEntrySize]byte
			m.AS.ReadAt(eva, b[:])
			rec := arch.Addr(binary.LittleEndian.Uint64(b[0:]))
			next := arch.Addr(binary.LittleEndian.Uint64(b[8:]))
			// Rehash by re-reading the stored key.
			kl, _ := headerFunctional(m.AS, rec)
			if cap(k) < kl {
				k = make([]byte, kl)
			}
			k = k[:kl]
			m.AS.ReadAt(rec+RecordHeaderSize, k)
			nb := h.bucketVA(h.ctx.Hash.Hash(k, h.ctx.Seed))
			oldHead := m.AS.ReadU64(nb)
			binary.LittleEndian.PutUint64(b[8:], oldHead)
			m.AS.WriteAt(eva, b[:])
			m.AS.WriteU64(nb, uint64(eva))
			eva = next
		}
	}
	m.AS.Free(oldB, oldN*8)
	m.Compute(arch.Cycles(oldN*20), arch.CatOther)
}

// allocClass mirrors vm's size-class rounding for move decisions.
func allocClass(n int) int {
	c := 16
	for c < n && c < arch.PageSize {
		c <<= 1
	}
	if n > arch.PageSize {
		return (n + arch.PageSize - 1) &^ arch.PageMask
	}
	return c
}

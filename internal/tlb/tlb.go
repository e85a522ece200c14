// Package tlb implements the simulated two-level TLB of Table III
// (L1: 64-entry 4-way, 1 cycle; L2: 1536-entry 4-way, 7 cycles) and the
// distance-based TLB prefetcher evaluated in Section IV-F.
package tlb

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/setassoc"
	"addrkv/internal/vm"
)

// TLB is one set-associative translation lookaside buffer level,
// mapping virtual page numbers to PTEs.
type TLB struct {
	sets int
	tick uint64
	// data holds one set per element: its arch.TLBWays tag words (vpn+1
	// under setassoc.FlagPrefetched), then its LRU words, then its PTEs.
	// A set is 96 contiguous bytes, of which a lookup scans the first 32.
	data [][3 * arch.TLBWays]uint64

	Hits         uint64
	Misses       uint64
	PrefetchHits uint64
}

// New builds an arch.TLBWays-way TLB with the given total entry count.
// Unlike the data caches, TLB set counts need not be powers of two
// (the Table III L2 TLB is 1536-entry 4-way = 384 sets); indexing is
// by modulo.
func New(name string, entries int) *TLB {
	sets := entries / arch.TLBWays
	if sets <= 0 {
		panic(fmt.Sprintf("tlb %s: non-positive set count %d", name, sets))
	}
	return &TLB{sets: sets, data: make([][3 * arch.TLBWays]uint64, sets)}
}

// set returns the tag, LRU and PTE words of vpn's set. The index is vpn
// modulo the set count, without the 64-bit divide where it can be had
// cheaper: a mask for a power of two (L1: 16 sets), a 32-bit modulo
// while the page number fits (L2: 384 sets).
func (t *TLB) set(vpn uint64) (tags, lrus, ptes *[arch.TLBWays]uint64) {
	var s int
	switch {
	case t.sets&(t.sets-1) == 0:
		s = int(vpn) & (t.sets - 1)
	case vpn>>32 == 0:
		s = int(uint32(vpn) % uint32(t.sets))
	default:
		s = int(vpn % uint64(t.sets))
	}
	set := &t.data[s]
	const w = arch.TLBWays
	return (*[w]uint64)(set[:w]), (*[w]uint64)(set[w : 2*w]), (*[w]uint64)(set[2*w:])
}

// Lookup probes for vpn, updating LRU and hit/miss statistics.
func (t *TLB) Lookup(vpn uint64) (vm.PTE, bool) {
	t.tick++
	tags, lrus, ptes := t.set(vpn)
	i := setassoc.Find4(tags, vpn+1)
	if i < 0 {
		t.Misses++
		return 0, false
	}
	lrus[i] = t.tick
	if tags[i]&setassoc.FlagPrefetched != 0 {
		tags[i] &^= setassoc.FlagPrefetched
		t.PrefetchHits++
	}
	t.Hits++
	return vm.PTE(ptes[i]), true
}

// Probe checks for vpn without touching statistics or LRU state.
func (t *TLB) Probe(vpn uint64) bool {
	tags, _, _ := t.set(vpn)
	return setassoc.Find4(tags, vpn+1) >= 0
}

// Insert fills vpn -> pte, evicting LRU if needed.
func (t *TLB) Insert(vpn uint64, pte vm.PTE) { t.insert(vpn, pte, 0) }

// InsertPrefetched fills an entry installed by a prefetcher.
func (t *TLB) InsertPrefetched(vpn uint64, pte vm.PTE) { t.insert(vpn, pte, setassoc.FlagPrefetched) }

func (t *TLB) insert(vpn uint64, pte vm.PTE, flag uint64) {
	t.tick++
	tags, lrus, ptes := t.set(vpn)
	v, present := setassoc.Place4(tags, lrus, vpn+1)
	if present {
		flag = tags[v] & setassoc.FlagPrefetched // new PTE and age, the flag stays
	}
	tags[v], lrus[v], ptes[v] = (vpn+1)|flag, t.tick, uint64(pte)
}

// InvalidatePage drops the entry for vpn if present (invlpg).
func (t *TLB) InvalidatePage(vpn uint64) bool {
	tags, _, _ := t.set(vpn)
	i := setassoc.Find4(tags, vpn+1)
	if i >= 0 {
		tags[i] = 0
	}
	return i >= 0
}

// Flush drops all entries (full TLB flush, e.g. context switch).
func (t *TLB) Flush() {
	clear(t.data)
}

// ResetStats clears counters, preserving contents.
func (t *TLB) ResetStats() { t.Hits, t.Misses, t.PrefetchHits = 0, 0, 0 }

// Hierarchy is the two-level TLB. A lookup that hits L2 refills L1.
type Hierarchy struct {
	L1   *TLB
	L2   *TLB
	lat1 arch.Cycles
	lat2 arch.Cycles

	// Lookups counts translations requested; FullMisses counts those
	// that missed both levels (and went to STB/page walker).
	Lookups    uint64
	FullMisses uint64
}

// NewHierarchy builds the two-level TLB from machine parameters.
func NewHierarchy(p arch.MachineParams) *Hierarchy {
	return &Hierarchy{
		L1:   New("DTLB", p.L1TLBEntries),
		L2:   New("STLB", p.L2TLBEntries),
		lat1: p.L1TLBLatency,
		lat2: p.L2TLBLatency,
	}
}

// Lookup translates vpn. It returns the PTE, the lookup latency, and
// whether any level hit. On a full miss the caller must resolve the
// translation (STB, then page walk) and call Fill.
func (h *Hierarchy) Lookup(vpn uint64) (vm.PTE, arch.Cycles, bool) {
	h.Lookups++
	if pte, ok := h.L1.Lookup(vpn); ok {
		return pte, h.lat1, true
	}
	if pte, ok := h.L2.Lookup(vpn); ok {
		h.L1.Insert(vpn, pte)
		return pte, h.lat1 + h.lat2, true
	}
	h.FullMisses++
	return 0, h.lat1 + h.lat2, false
}

// Fill installs a resolved translation into both levels.
func (h *Hierarchy) Fill(vpn uint64, pte vm.PTE) {
	h.L2.Insert(vpn, pte)
	h.L1.Insert(vpn, pte)
}

// InvalidatePage drops vpn from both levels.
func (h *Hierarchy) InvalidatePage(vpn uint64) {
	h.L1.InvalidatePage(vpn)
	h.L2.InvalidatePage(vpn)
}

// Flush clears both levels.
func (h *Hierarchy) Flush() {
	h.L1.Flush()
	h.L2.Flush()
}

// ResetStats clears all counters, preserving contents.
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.Lookups, h.FullMisses = 0, 0
}

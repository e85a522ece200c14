package tlb

// One TLB level as it stood at cccfd15 — one 40-byte struct per way, a
// 64-bit modulo per set index — moved here verbatim (types renamed
// ref*) when tlb.go was re-laid as dense word arrays. It is the
// reference model differential_test.go drives in lock-step with TLB.

import (
	"fmt"

	"addrkv/internal/vm"
)

type refWay struct {
	vpn        uint64
	pte        vm.PTE
	valid      bool
	lru        uint64
	prefetched bool
}

// TLB is one set-associative translation lookaside buffer level,
// mapping virtual page numbers to PTEs.
type refTLB struct {
	name string
	sets int
	ways int
	tick uint64
	data []refWay

	Hits         uint64
	Misses       uint64
	PrefetchHits uint64
}

// New builds a TLB with the given total entry count and associativity.
// Unlike the data caches, TLB set counts need not be powers of two
// (the Table III L2 TLB is 1536-entry 4-way = 384 sets); indexing is
// by modulo.
func newRef(name string, entries, ways int) *refTLB {
	sets := entries / ways
	if sets <= 0 {
		panic(fmt.Sprintf("tlb %s: non-positive set count %d", name, sets))
	}
	return &refTLB{name: name, sets: sets, ways: ways, data: make([]refWay, sets*ways)}
}

func (t *refTLB) set(vpn uint64) []refWay {
	s := int(vpn % uint64(t.sets))
	return t.data[s*t.ways : (s+1)*t.ways]
}

// Lookup probes for vpn, updating LRU and hit/miss statistics.
func (t *refTLB) Lookup(vpn uint64) (vm.PTE, bool) {
	t.tick++
	set := t.set(vpn)
	for i := range set {
		w := &set[i]
		if w.valid && w.vpn == vpn {
			w.lru = t.tick
			if w.prefetched {
				w.prefetched = false
				t.PrefetchHits++
			}
			t.Hits++
			return w.pte, true
		}
	}
	t.Misses++
	return 0, false
}

// Probe checks for vpn without touching statistics or LRU state.
func (t *refTLB) Probe(vpn uint64) bool {
	for i := range t.set(vpn) {
		w := &t.set(vpn)[i]
		if w.valid && w.vpn == vpn {
			return true
		}
	}
	return false
}

// Insert fills vpn -> pte, evicting LRU if needed.
func (t *refTLB) Insert(vpn uint64, pte vm.PTE) { t.insert(vpn, pte, false) }

// InsertPrefetched fills an entry installed by a prefetcher.
func (t *refTLB) InsertPrefetched(vpn uint64, pte vm.PTE) { t.insert(vpn, pte, true) }

func (t *refTLB) insert(vpn uint64, pte vm.PTE, prefetched bool) {
	t.tick++
	set := t.set(vpn)
	victim := 0
	for i := range set {
		w := &set[i]
		if w.valid && w.vpn == vpn {
			w.pte = pte
			w.lru = t.tick
			return
		}
		if !w.valid {
			victim = i
			goto place
		}
		if w.lru < set[victim].lru {
			victim = i
		}
	}
place:
	set[victim] = refWay{vpn: vpn, pte: pte, valid: true, lru: t.tick, prefetched: prefetched}
}

// InvalidatePage drops the entry for vpn if present (invlpg).
func (t *refTLB) InvalidatePage(vpn uint64) bool {
	for i := range t.set(vpn) {
		w := &t.set(vpn)[i]
		if w.valid && w.vpn == vpn {
			w.valid = false
			return true
		}
	}
	return false
}

// Flush drops all entries (full TLB flush, e.g. context switch).
func (t *refTLB) Flush() {
	for i := range t.data {
		t.data[i] = refWay{}
	}
}

// ResetStats clears counters, preserving contents.
func (t *refTLB) ResetStats() { t.Hits, t.Misses, t.PrefetchHits = 0, 0, 0 }

package cache

import "addrkv/internal/arch"

// KindStats aggregates per-AccessKind counters for the hierarchy.
type KindStats struct {
	Accesses uint64 // demand accesses (line granularity)
	L1Miss   uint64
	L2Miss   uint64
	L3Miss   uint64 // these reached DRAM
}

// Hierarchy is the three-level data-cache hierarchy plus DRAM. All
// accesses are physical. An optional Prefetcher observes the
// last-level-cache demand stream (the paper evaluates LLC prefetchers).
type Hierarchy struct {
	L1   *Cache
	L2   *Cache
	L3   *Cache
	Mem  *DRAM
	lat1 arch.Cycles
	lat2 arch.Cycles
	lat3 arch.Cycles

	// Prefetcher, if non-nil, trains on L3 demand traffic and its
	// prefetches fill L3 (and consume DRAM bandwidth).
	Prefetcher Prefetcher
	// PrefetchIssued counts lines requested by the prefetcher that
	// actually went to DRAM.
	PrefetchIssued uint64

	byKind [arch.NumAccessKinds]KindStats
}

// NewHierarchy builds the hierarchy from machine parameters.
func NewHierarchy(p arch.MachineParams) *Hierarchy {
	return &Hierarchy{
		L1:   NewCache("L1D", p.L1Size, p.L1Ways),
		L2:   NewCache("L2", p.L2Size, p.L2Ways),
		L3:   NewCache("L3", p.L3Size, p.L3Ways),
		Mem:  NewDRAM(p),
		lat1: p.L1Latency,
		lat2: p.L2Latency,
		lat3: p.L3Latency,
	}
}

// Access performs one demand access to the line containing pa and
// returns its latency. Writes are modeled as allocate-on-write with
// the same timing as reads (a write-back hierarchy hides store latency
// behind the store buffer; we charge the fill like the paper's
// simulator does for getX requests).
func (h *Hierarchy) Access(pa arch.Addr, write bool, kind arch.AccessKind) arch.Cycles {
	line := pa.Line()
	ks := &h.byKind[kind]
	ks.Accesses++

	if h.L1.Access(line) {
		if write {
			h.L3.MarkDirty(line)
		}
		return h.lat1
	}
	ks.L1Miss++
	if h.L2.Access(line) {
		h.fill3(line)
		h.L1.Fill(line, false)
		if write {
			h.L3.MarkDirty(line)
		}
		return h.lat1 + h.lat2
	}
	ks.L2Miss++
	hit3 := h.L3.Access(line)
	h.observe(line, !hit3)
	if hit3 {
		h.L2.Fill(line, false)
		h.L1.Fill(line, false)
		if write {
			h.L3.MarkDirty(line)
		}
		return h.lat1 + h.lat2 + h.lat3
	}
	ks.L3Miss++
	lat := h.Mem.Demand()
	h.fill3(line)
	h.L2.Fill(line, false)
	h.L1.Fill(line, false)
	if write {
		h.L3.MarkDirty(line)
	}
	return h.lat1 + h.lat2 + h.lat3 + lat
}

// fill3 installs a line into L3, draining any dirty victim to DRAM
// (write-back policy; dirtiness is tracked at the L3 level, which the
// inclusive fills keep as a superset of L1/L2).
func (h *Hierarchy) fill3(line uint64) {
	if h.L3.Fill(line, false) {
		h.Mem.Writeback()
	}
}

// observe feeds the LLC prefetcher and executes its prefetches.
func (h *Hierarchy) observe(line uint64, miss bool) {
	if h.Prefetcher == nil {
		return
	}
	for _, pl := range h.Prefetcher.Observe(line, miss) {
		if h.L3.Lookup(pl) {
			continue
		}
		h.Mem.Prefetch()
		h.PrefetchIssued++
		h.L3.Fill(pl, true)
	}
}

// AccessRange touches every line overlapped by [pa, pa+size) and
// returns the summed latency. Lines are accessed serially, which is
// conservative for multi-line records (the paper's latency estimates
// are likewise "conservative ... fully exposed non-overlapped").
func (h *Hierarchy) AccessRange(pa arch.Addr, size int, write bool, kind arch.AccessKind) arch.Cycles {
	if size <= 0 {
		return 0
	}
	var total arch.Cycles
	first := pa.Line()
	last := (pa + arch.Addr(size) - 1).Line()
	for l := first; l <= last; l++ {
		total += h.Access(arch.Addr(l<<arch.LineShift), write, kind)
	}
	return total
}

// Stats returns a copy of the per-kind counters.
func (h *Hierarchy) Stats(kind arch.AccessKind) KindStats { return h.byKind[kind] }

// TotalStats sums counters across kinds.
func (h *Hierarchy) TotalStats() KindStats {
	var t KindStats
	for _, ks := range h.byKind {
		t.Accesses += ks.Accesses
		t.L1Miss += ks.L1Miss
		t.L2Miss += ks.L2Miss
		t.L3Miss += ks.L3Miss
	}
	return t
}

// ResetStats clears all counters (cache contents are preserved), for
// the warm-up/measure split.
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.Mem.ResetStats()
	h.PrefetchIssued = 0
	h.byKind = [arch.NumAccessKinds]KindStats{}
}

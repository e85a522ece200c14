// Package cpu ties the simulated memory system together into a timing
// model of one core: every simulated load/store goes through the TLB
// hierarchy (with STB backup), the page-table walker, and the data
// caches, and its latency is charged to a cost category so the harness
// can reproduce the paper's Figure 1 execution-time breakdown.
//
// The model is trace-driven and conservative: dependent accesses are
// fully serialized, matching the paper's own latency methodology ("the
// latencies we assume reflect fully exposed non-overlapped execution").
package cpu

import (
	"encoding/binary"
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/cache"
	"addrkv/internal/tlb"
	"addrkv/internal/trace"
	"addrkv/internal/vm"
)

// Stats is a snapshot of the machine's counters.
type Stats struct {
	Cycles              arch.Cycles
	ByCat               [arch.NumCostCategories]arch.Cycles
	Loads               uint64
	Stores              uint64
	TLBLookups          uint64
	TLBMisses           uint64 // full misses (missed both TLB levels)
	STBHits             uint64
	PageWalks           uint64
	WalkCycles          arch.Cycles
	CacheTotal          cache.KindStats
	DRAMAccesses        uint64
	DRAMDemand          uint64
	DRAMWritebacks      uint64
	MeanDRAMLatency     float64
	TLBPrefetchIssued   uint64
	TLBPrefetchHits     uint64
	CachePrefetchIssued uint64
	CachePrefetchHits   uint64
}

// Sub returns s - base, counter-wise (for warm-up/measure splits when
// ResetStats is inconvenient).
func (s Stats) Sub(base Stats) Stats {
	d := s
	d.Cycles -= base.Cycles
	for i := range d.ByCat {
		d.ByCat[i] -= base.ByCat[i]
	}
	d.Loads -= base.Loads
	d.Stores -= base.Stores
	d.TLBLookups -= base.TLBLookups
	d.TLBMisses -= base.TLBMisses
	d.STBHits -= base.STBHits
	d.PageWalks -= base.PageWalks
	d.WalkCycles -= base.WalkCycles
	d.CacheTotal.Accesses -= base.CacheTotal.Accesses
	d.CacheTotal.L1Miss -= base.CacheTotal.L1Miss
	d.CacheTotal.L2Miss -= base.CacheTotal.L2Miss
	d.CacheTotal.L3Miss -= base.CacheTotal.L3Miss
	d.DRAMAccesses -= base.DRAMAccesses
	d.DRAMDemand -= base.DRAMDemand
	d.DRAMWritebacks -= base.DRAMWritebacks
	d.TLBPrefetchIssued -= base.TLBPrefetchIssued
	d.TLBPrefetchHits -= base.TLBPrefetchHits
	d.CachePrefetchIssued -= base.CachePrefetchIssued
	d.CachePrefetchHits -= base.CachePrefetchHits
	return d
}

// Add returns s + o, counter-wise. MeanDRAMLatency is combined as the
// access-count-weighted mean, so merging per-shard machine stats keeps
// the aggregate latency meaningful.
func (s Stats) Add(o Stats) Stats {
	d := s
	d.Cycles += o.Cycles
	for i := range d.ByCat {
		d.ByCat[i] += o.ByCat[i]
	}
	d.Loads += o.Loads
	d.Stores += o.Stores
	d.TLBLookups += o.TLBLookups
	d.TLBMisses += o.TLBMisses
	d.STBHits += o.STBHits
	d.PageWalks += o.PageWalks
	d.WalkCycles += o.WalkCycles
	d.CacheTotal.Accesses += o.CacheTotal.Accesses
	d.CacheTotal.L1Miss += o.CacheTotal.L1Miss
	d.CacheTotal.L2Miss += o.CacheTotal.L2Miss
	d.CacheTotal.L3Miss += o.CacheTotal.L3Miss
	if total := s.DRAMAccesses + o.DRAMAccesses; total > 0 {
		d.MeanDRAMLatency = (s.MeanDRAMLatency*float64(s.DRAMAccesses) +
			o.MeanDRAMLatency*float64(o.DRAMAccesses)) / float64(total)
	}
	d.DRAMAccesses += o.DRAMAccesses
	d.DRAMDemand += o.DRAMDemand
	d.DRAMWritebacks += o.DRAMWritebacks
	d.TLBPrefetchIssued += o.TLBPrefetchIssued
	d.TLBPrefetchHits += o.TLBPrefetchHits
	d.CachePrefetchIssued += o.CachePrefetchIssued
	d.CachePrefetchHits += o.CachePrefetchHits
	return d
}

// Machine is the simulated core plus its memory system.
type Machine struct {
	Params arch.MachineParams
	AS     *vm.AddressSpace
	Caches *cache.Hierarchy
	TLBs   *tlb.Hierarchy
	STB    *STB
	IPB    *IPB

	// TLBPrefetcher, if non-nil, is trained on full TLB misses and
	// prefetches predicted translations into the L2 TLB.
	TLBPrefetcher *tlb.DistancePrefetcher

	// Fast disables all timing and cache/TLB state updates; loads and
	// stores become purely functional. Used to build multi-hundred-
	// thousand-key stores quickly before warming up.
	Fast bool

	// Trace, when non-nil, receives translation-pipeline events
	// (stb.hit/miss, walk levels, tlb refills) for the op currently
	// being traced. Hooks only read counters and append to the span;
	// they never charge cycles, so the untraced path is bit-for-bit
	// identical.
	Trace *trace.Op

	cycles     arch.Cycles
	byCat      [arch.NumCostCategories]arch.Cycles
	loads      uint64
	stores     uint64
	walks      uint64
	walkCycles arch.Cycles

	walkBuf []vm.WalkStep
}

// New builds a machine over a fresh address space.
func New(p arch.MachineParams) *Machine {
	pm := vm.NewPhysMem()
	return NewWithAS(p, vm.NewAddressSpace(pm))
}

// NewWithAS builds a machine over an existing address space.
func NewWithAS(p arch.MachineParams, as *vm.AddressSpace) *Machine {
	m := &Machine{
		Params: p,
		AS:     as,
		Caches: cache.NewHierarchy(p),
		TLBs:   tlb.NewHierarchy(p),
		STB:    NewSTB(p.STBEntries),
		IPB:    NewIPB(p.IPBEntries),
	}
	// The DRAM contention queue decays with simulated time.
	m.Caches.Mem.Now = func() arch.Cycles { return m.cycles }
	return m
}

// Cycles returns the accumulated cycle count.
func (m *Machine) Cycles() arch.Cycles { return m.cycles }

// Compute charges pure compute cycles to a category.
func (m *Machine) Compute(c arch.Cycles, cat arch.CostCategory) {
	if m.Fast {
		return
	}
	m.cycles += c
	m.byCat[cat] += c
}

// charge adds memory-system cycles to a category.
func (m *Machine) charge(c arch.Cycles, cat arch.CostCategory) {
	m.cycles += c
	m.byCat[cat] += c
}

// Translate resolves va with full timing: TLB lookup, then STB, then a
// page walk whose PTE reads go through the data caches. Translation
// latency is charged to CatTranslate regardless of what the enclosing
// access was doing, which is exactly the paper's accounting. It
// panics on an unmapped address (the simulated heap maps pages
// eagerly, so this indicates a stale pointer bug).
func (m *Machine) Translate(va arch.Addr) arch.Addr {
	if m.Fast {
		pa, ok := m.AS.Translate(va)
		if !ok {
			panic(fmt.Sprintf("cpu: access to unmapped address %v", va))
		}
		return pa
	}
	vpn := va.Page()
	pte, lat, hit := m.TLBs.Lookup(vpn)
	m.charge(lat, arch.CatTranslate)
	if !hit {
		var idx int
		pte, idx = m.STB.LookupIdx(vpn)
		m.charge(1, arch.CatTranslate) // STB CAM match, off the L1 critical path
		if idx >= 0 {
			if m.Trace != nil {
				m.Trace.Event(trace.EvSTBHit, uint64(m.cycles), int64(idx), int64(vpn), 0)
			}
			m.TLBs.Fill(vpn, pte)
			if m.Trace != nil {
				m.Trace.Event(trace.EvTLBRefill, uint64(m.cycles), int64(vpn), 0, 0)
			}
		} else {
			if m.Trace != nil {
				m.Trace.Event(trace.EvSTBMiss, uint64(m.cycles), int64(vpn), 0, 0)
			}
			pte = m.walk(va)
			if !pte.Present() {
				panic(fmt.Sprintf("cpu: page fault on %v (stale translation?)", va))
			}
			m.TLBs.Fill(vpn, pte)
			if m.Trace != nil {
				m.Trace.Event(trace.EvTLBRefill, uint64(m.cycles), int64(vpn), 0, 0)
			}
			m.tlbPrefetch(vpn)
		}
	}
	return pte.PhysBase() + arch.Addr(va.Offset())
}

// walk performs a timed page-table walk: each PTE read is a physical
// access through the cache hierarchy ("The data cache caches data as
// well as page table entries, as modern architectures do").
func (m *Machine) walk(va arch.Addr) vm.PTE {
	m.walks++
	var pte vm.PTE
	pte, m.walkBuf = m.AS.PT.Walk(va, m.walkBuf[:0])
	var c arch.Cycles
	for _, st := range m.walkBuf {
		lc := m.Caches.Access(st.PTEAddr, false, arch.KindPageTable)
		c += lc
		if m.Trace != nil {
			leaf := int64(0)
			if st.Leaf() {
				leaf = 1
			}
			m.Trace.Event(trace.EvWalkLevel, uint64(m.cycles+c), int64(st.Level), int64(lc), leaf)
		}
	}
	m.walkCycles += c
	m.charge(c, arch.CatTranslate)
	if m.Trace != nil {
		m.Trace.Event(trace.EvPageWalk, uint64(m.cycles), int64(len(m.walkBuf)), int64(c), 0)
	}
	return pte
}

// tlbPrefetch trains the distance prefetcher on a full TLB miss and
// installs its prediction (if the predicted page is mapped) into the
// L2 TLB. The walk for the prefetched translation happens off the
// critical path but still consumes DRAM bandwidth.
func (m *Machine) tlbPrefetch(vpn uint64) {
	if m.TLBPrefetcher == nil {
		return
	}
	pred, ok := m.TLBPrefetcher.OnMiss(vpn)
	if !ok || m.TLBs.L2.Probe(pred) {
		return
	}
	pte, ok := m.AS.PT.Lookup(arch.Addr(pred << arch.PageShift))
	if !ok {
		return
	}
	// Off-critical-path walk traffic: pressure DRAM only.
	m.Caches.Mem.Prefetch()
	m.TLBs.L2.InsertPrefetched(pred, pte)
}

// span is the timed part of every load and store: translate va, touch
// the lines of [va, va+size) up to the end of va's page, and charge
// their latency to cat. It returns where the bytes are and how many of
// the size it covered; a caller with more goes round again.
func (m *Machine) span(va arch.Addr, size int, write bool, kind arch.AccessKind, cat arch.CostCategory) (pa arch.Addr, n int) {
	pa = m.Translate(va)
	n = arch.PageSize - int(va.Offset())
	if n > size {
		n = size
	}
	m.charge(m.Caches.AccessRange(pa, n, write, kind), cat)
	return pa, n
}

// Read performs a timed load and returns the bytes read. The physical
// address resolved by the timed translation is reused for the data
// copy, so the page table is consulted once per page, like hardware.
func (m *Machine) Read(va arch.Addr, buf []byte, kind arch.AccessKind, cat arch.CostCategory) {
	if m.Fast {
		m.AS.ReadAt(va, buf)
		return
	}
	m.loads++
	for len(buf) > 0 {
		pa, n := m.span(va, len(buf), false, kind, cat)
		m.AS.Phys.ReadAt(pa, buf[:n])
		buf = buf[n:]
		va += arch.Addr(n)
	}
}

// Write performs a timed store of buf at va.
func (m *Machine) Write(va arch.Addr, buf []byte, kind arch.AccessKind, cat arch.CostCategory) {
	if m.Fast {
		m.AS.WriteAt(va, buf)
		return
	}
	m.stores++
	for len(buf) > 0 {
		pa, n := m.span(va, len(buf), true, kind, cat)
		m.AS.Phys.WriteAt(pa, buf[:n])
		buf = buf[n:]
		va += arch.Addr(n)
	}
}

// ReadU64 performs a timed 8-byte load.
func (m *Machine) ReadU64(va arch.Addr, kind arch.AccessKind, cat arch.CostCategory) uint64 {
	if m.Fast {
		return m.AS.ReadU64(va)
	}
	if va.Offset() > arch.PageSize-8 {
		var b [8]byte
		m.Read(va, b[:], kind, cat)
		return binary.LittleEndian.Uint64(b[:])
	}
	m.loads++
	pa, _ := m.span(va, 8, false, kind, cat)
	return m.AS.Phys.ReadU64(pa)
}

// WriteU64 performs a timed 8-byte store.
func (m *Machine) WriteU64(va arch.Addr, v uint64, kind arch.AccessKind, cat arch.CostCategory) {
	if m.Fast {
		m.AS.WriteU64(va, v)
		return
	}
	if va.Offset() > arch.PageSize-8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.Write(va, b[:], kind, cat)
		return
	}
	m.stores++
	pa, _ := m.span(va, 8, true, kind, cat)
	m.AS.Phys.WriteU64(pa, v)
}

// Touch performs a timed access without transferring data (used to
// charge for streaming over a value whose bytes the caller does not
// need).
func (m *Machine) Touch(va arch.Addr, size int, write bool, kind arch.AccessKind, cat arch.CostCategory) {
	if m.Fast {
		return
	}
	if write {
		m.stores++
	} else {
		m.loads++
	}
	for size > 0 {
		_, n := m.span(va, size, write, kind, cat)
		va += arch.Addr(n)
		size -= n
	}
}

// Stats snapshots all counters.
func (m *Machine) Stats() Stats {
	s := Stats{
		Cycles:              m.cycles,
		ByCat:               m.byCat,
		Loads:               m.loads,
		Stores:              m.stores,
		TLBLookups:          m.TLBs.Lookups,
		TLBMisses:           m.TLBs.FullMisses,
		STBHits:             m.STB.Hits,
		PageWalks:           m.walks,
		WalkCycles:          m.walkCycles,
		CacheTotal:          m.Caches.TotalStats(),
		DRAMAccesses:        m.Caches.Mem.Accesses,
		DRAMDemand:          m.Caches.Mem.DemandAccesses,
		MeanDRAMLatency:     m.Caches.Mem.MeanDemandLatency(),
		CachePrefetchIssued: m.Caches.PrefetchIssued,
		CachePrefetchHits: m.Caches.L1.PrefetchHits + m.Caches.L2.PrefetchHits +
			m.Caches.L3.PrefetchHits,
		TLBPrefetchHits: m.TLBs.L1.PrefetchHits + m.TLBs.L2.PrefetchHits,
	}
	if m.TLBPrefetcher != nil {
		s.TLBPrefetchIssued = m.TLBPrefetcher.Issued
	}
	return s
}

// Probe is a cheap snapshot of the counters a per-op observer diffs
// across a single operation. Reading it charges nothing on the
// simulated machine, so probing has zero timing effect.
type Probe struct {
	Cycles    arch.Cycles
	TLBMisses uint64
	STBHits   uint64
	PageWalks uint64
}

// Probe snapshots the observer counters.
func (m *Machine) Probe() Probe {
	return Probe{
		Cycles:    m.cycles,
		TLBMisses: m.TLBs.FullMisses,
		STBHits:   m.STB.Hits,
		PageWalks: m.walks,
	}
}

// ResetStats zeroes all counters while preserving cache, TLB, STB and
// IPB *contents* — the warm-up/measurement split of Section IV-A.
func (m *Machine) ResetStats() {
	m.cycles = 0
	m.byCat = [arch.NumCostCategories]arch.Cycles{}
	m.loads, m.stores, m.walks = 0, 0, 0
	m.walkCycles = 0
	m.Caches.ResetStats()
	m.TLBs.ResetStats()
	m.STB.ResetStats()
	m.IPB.ResetStats()
	if m.TLBPrefetcher != nil {
		m.TLBPrefetcher.Issued = 0
	}
}

package cache

import (
	"math"
	"math/rand"
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/setassoc"
)

// NewCacheSets builds a cache from an explicit set count.
func NewCacheSets(name string, sets int) *Cache {
	return NewCache(name, sets*arch.CacheWays*arch.LineSize)
}

// IsDirty reports the line's dirty flag.
func (c *Cache) IsDirty(line uint64) bool {
	tags, _ := c.set(line)
	i := setassoc.Find8(tags, line+1)
	return i >= 0 && tags[i]&setassoc.FlagDirty != 0
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCacheSets("t", 4)
	if c.Access(100) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(100, false)
	if !c.Access(100) {
		t.Fatal("miss after fill")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCacheSets("t", 1) // one set: nine lines into eight ways
	for l := uint64(0); l < arch.CacheWays; l++ {
		c.Fill(l, false)
	}
	c.Access(0)                   // 0 is now MRU, 1 the LRU
	c.Fill(arch.CacheWays, false) // must evict 1
	if !c.Lookup(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Lookup(1) {
		t.Fatal("LRU line survived")
	}
	for l := uint64(2); l <= arch.CacheWays; l++ {
		if !c.Lookup(l) {
			t.Fatalf("line %d absent", l)
		}
	}
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := NewCacheSets("t", 4)
	// Lines 0..31 put eight lines in each of the four sets; filling all
	// must evict none.
	for l := uint64(0); l < 4*arch.CacheWays; l++ {
		c.Fill(l, false)
	}
	for l := uint64(0); l < 4*arch.CacheWays; l++ {
		if !c.Lookup(l) {
			t.Fatalf("line %d missing", l)
		}
	}
	if c.Evictions != 0 {
		t.Fatal("same-set conflict across distinct sets")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCacheSets("t", 2)
	c.Fill(5, false)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed present line")
	}
	if c.Lookup(5) {
		t.Fatal("line present after invalidate")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate hit absent line")
	}
}

func TestCachePrefetchAccounting(t *testing.T) {
	c := NewCacheSets("t", 2)
	c.Fill(8, true)
	if c.PrefetchHits != 0 {
		t.Fatal("premature prefetch hit")
	}
	c.Access(8)
	c.Access(8)
	if c.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d, want 1 (first touch only)", c.PrefetchHits)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count accepted")
		}
	}()
	NewCache("bad", 3*arch.CacheWays*arch.LineSize)
}

func TestDRAMContention(t *testing.T) {
	p := arch.DefaultMachineParams()
	d := NewDRAM(p)
	first := d.Demand()
	if first != p.DRAMLatency {
		t.Fatalf("unloaded latency = %d, want %d", first, p.DRAMLatency)
	}
	// Hammer it; effective latency must grow but stay capped.
	var last arch.Cycles
	for i := 0; i < 10000; i++ {
		last = d.Demand()
	}
	if last <= first {
		t.Fatal("no queue growth under load")
	}
	if last > p.DRAMLatency+p.DRAMQueueMax {
		t.Fatalf("latency %d exceeds cap", last)
	}
	if d.Accesses != 10001 || d.DemandAccesses != 10001 {
		t.Fatalf("access counts %d/%d", d.Accesses, d.DemandAccesses)
	}
}

// TestDecayTableIsExp2: the decay factor DRAM.settle applies is, bit for
// bit, the math.Exp2 it used to compute per event, over the whole table
// and past its end where it still computes.
func TestDecayTableIsExp2(t *testing.T) {
	window := 1500.0 // the half-life, spelled as the old per-event code had it
	for dt := arch.Cycles(0); dt < 2*arch.Cycles(len(decayTable)); dt++ {
		want := math.Exp2(-float64(dt) / window)
		if got := decay(dt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decay(%d) = %v, math.Exp2 gives %v", dt, got, want)
		}
	}
}

func TestDRAMPrefetchPressuresDemand(t *testing.T) {
	p := arch.DefaultMachineParams()
	quiet := NewDRAM(p)
	noisy := NewDRAM(p)
	for i := 0; i < 200; i++ {
		noisy.Prefetch()
	}
	if noisy.Demand() <= quiet.Demand() {
		t.Fatal("prefetch traffic did not slow demand access")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	pa := arch.Addr(0x10000)

	lat := h.Access(pa, false, arch.KindOther)
	wantMiss := p.L1Latency + p.L2Latency + p.L3Latency + p.DRAMLatency
	if lat != wantMiss {
		t.Fatalf("cold miss latency = %d, want %d", lat, wantMiss)
	}
	if got := h.Access(pa, false, arch.KindOther); got != p.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", got, p.L1Latency)
	}

	// Evict from L1 only: touch enough distinct lines mapping to the
	// same L1 set but different L2 sets.
	l1sets := h.L1.sets
	for i := 1; i <= arch.CacheWays; i++ {
		h.Access(pa+arch.Addr(i*l1sets*arch.LineSize), false, arch.KindOther)
	}
	if got := h.Access(pa, false, arch.KindOther); got != p.L1Latency+p.L2Latency {
		t.Fatalf("L2 hit latency = %d, want %d", got, p.L1Latency+p.L2Latency)
	}
}

func TestHierarchyAccessRange(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	// 100 bytes starting mid-line spans 3 lines.
	h.AccessRange(arch.Addr(32), 100, false, arch.KindRecord)
	if got := h.Stats(arch.KindRecord).Accesses; got != 3 {
		t.Fatalf("line accesses = %d, want 3", got)
	}
	if h.AccessRange(0, 0, false, arch.KindRecord) != 0 {
		t.Fatal("zero-size range should be free")
	}
}

func TestHierarchyKindAttribution(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	h.Access(0, false, arch.KindPageTable)
	h.Access(64, false, arch.KindRecord)
	if h.Stats(arch.KindPageTable).Accesses != 1 || h.Stats(arch.KindRecord).Accesses != 1 {
		t.Fatal("kind attribution broken")
	}
	tot := h.TotalStats()
	if tot.Accesses != 2 || tot.L3Miss != 2 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestStridePrefetcherDetectsStream(t *testing.T) {
	p := NewStridePrefetcher()
	page := uint64(100)
	var got []uint64
	for i := 0; i < 5; i++ {
		got = p.Observe(page<<6|uint64(i*2), true)
	}
	if len(got) == 0 {
		t.Fatal("no prefetches on a steady stride")
	}
	if got[0] != page<<6|uint64(10) {
		t.Fatalf("first prefetch = %d, want next stride line", got[0])
	}
}

func TestStridePrefetcherRandomNoConfirm(t *testing.T) {
	p := NewStridePrefetcher()
	p.AggressiveNextLine = false
	rng := rand.New(rand.NewSource(3))
	issued := 0
	for i := 0; i < 2000; i++ {
		issued += len(p.Observe(rng.Uint64()>>20, true))
	}
	// Random addresses must rarely confirm streams.
	if issued > 200 {
		t.Fatalf("random traffic produced %d prefetches", issued)
	}
}

func TestVLDPLearnsDeltaPattern(t *testing.T) {
	p := NewVLDPPrefetcher()
	page := uint64(7)
	// Repeating delta pattern +3 within a page.
	line := uint64(0)
	var out []uint64
	for i := 0; i < 8; i++ {
		out = p.Observe(page<<6|line, true)
		line += 3
	}
	if len(out) == 0 {
		t.Fatal("VLDP did not predict a learned constant delta")
	}
	if out[0] != page<<6|line {
		t.Fatalf("prediction %d, want %d", out[0], page<<6|line)
	}
}

func TestVLDPStaysInPage(t *testing.T) {
	p := NewVLDPPrefetcher()
	page := uint64(9)
	for _, off := range []uint64{50, 55, 60} {
		for _, l := range p.Observe(page<<6|off, true) {
			if l>>6 != page {
				t.Fatalf("prefetch crossed page: line %d", l)
			}
		}
	}
}

func TestHierarchyPrefetcherFills(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	h.Prefetcher = NewStridePrefetcher()
	// A streaming pattern: prefetches should be issued and some lines
	// later hit as prefetched.
	for i := 0; i < 64; i++ {
		h.Access(arch.Addr(i*arch.LineSize), false, arch.KindOther)
	}
	if h.PrefetchIssued == 0 {
		t.Fatal("no prefetches issued on a stream")
	}
	if h.L3.PrefetchHits == 0 {
		t.Fatal("no prefetched lines were useful on a pure stream")
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	h.Access(0, false, arch.KindOther)
	h.ResetStats()
	if h.TotalStats().Accesses != 0 {
		t.Fatal("stats not cleared")
	}
	if got := h.Access(0, false, arch.KindOther); got != p.L1Latency {
		t.Fatal("contents lost by ResetStats")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	pa := arch.Addr(0x40000)
	h.Access(pa, true, arch.KindRecord) // write: line becomes dirty in L3
	if !h.L3.IsDirty(pa.Line()) {
		t.Fatal("written line not dirty in L3")
	}
	// Evict it from L3 by filling its set with conflicting lines.
	l3sets := h.L3.sets
	for i := 1; i <= arch.CacheWays; i++ {
		h.Access(pa+arch.Addr(i*l3sets*arch.LineSize), false, arch.KindRecord)
	}
	if h.Mem.Writebacks == 0 {
		t.Fatal("dirty eviction produced no write-back")
	}
}

func TestNoWritebackForCleanLines(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	pa := arch.Addr(0x40000)
	h.Access(pa, false, arch.KindRecord) // read only
	l3sets := h.L3.sets
	for i := 1; i <= arch.CacheWays; i++ {
		h.Access(pa+arch.Addr(i*l3sets*arch.LineSize), false, arch.KindRecord)
	}
	if h.Mem.Writebacks != 0 {
		t.Fatalf("clean evictions produced %d write-backs", h.Mem.Writebacks)
	}
}

func TestDirtyBitClearedOnRefill(t *testing.T) {
	c := NewCacheSets("t", 1)
	for l := uint64(1); l <= arch.CacheWays; l++ {
		c.Fill(l, false)
	}
	c.MarkDirty(1) // dirty, and the LRU way
	if got := c.Fill(arch.CacheWays+1, false); !got {
		t.Fatal("dirty eviction not reported")
	}
	if c.IsDirty(arch.CacheWays + 1) {
		t.Fatal("fresh line inherited dirty bit")
	}
}

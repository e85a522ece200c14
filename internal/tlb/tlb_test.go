package tlb

import (
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/vm"
)

func TestTLBBasics(t *testing.T) {
	tl := New("t", 8)
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(5, vm.MakePTE(42, true))
	pte, ok := tl.Lookup(5)
	if !ok || pte.Frame() != 42 {
		t.Fatalf("lookup = %#x, %v", pte, ok)
	}
	if tl.Hits != 1 || tl.Misses != 1 {
		t.Fatalf("stats %d/%d", tl.Hits, tl.Misses)
	}
}

func TestTLBUpdateInPlace(t *testing.T) {
	tl := New("t", 8)
	tl.Insert(5, vm.MakePTE(1, true))
	tl.Insert(5, vm.MakePTE(2, true))
	pte, _ := tl.Lookup(5)
	if pte.Frame() != 2 {
		t.Fatal("re-insert did not update")
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	tl := New("t", arch.TLBWays) // one set: vpns 0..4 all collide
	for vpn := uint64(0); vpn < arch.TLBWays; vpn++ {
		tl.Insert(vpn, vm.MakePTE(10+vpn, true))
	}
	tl.Lookup(0)                                  // 0 MRU, 1 the LRU
	tl.Insert(arch.TLBWays, vm.MakePTE(20, true)) // evicts 1
	if !tl.Probe(0) || tl.Probe(1) || !tl.Probe(2) || !tl.Probe(3) || !tl.Probe(arch.TLBWays) {
		t.Fatal("LRU eviction wrong")
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tl := New("t", 8)
	tl.Insert(3, vm.MakePTE(1, true))
	if !tl.InvalidatePage(3) {
		t.Fatal("invalidate missed")
	}
	if tl.Probe(3) {
		t.Fatal("entry survived invlpg")
	}
	tl.Insert(4, vm.MakePTE(1, true))
	tl.Flush()
	if tl.Probe(4) {
		t.Fatal("entry survived flush")
	}
}

func TestTLBNonPow2Sets(t *testing.T) {
	tl := New("t", 1536) // 384 sets, the Table III L2 TLB
	for vpn := uint64(0); vpn < 2000; vpn++ {
		tl.Insert(vpn, vm.MakePTE(vpn+1, true))
	}
	hits := 0
	for vpn := uint64(0); vpn < 2000; vpn++ {
		if tl.Probe(vpn) {
			hits++
		}
	}
	if hits == 0 || hits > 1536 {
		t.Fatalf("resident entries = %d", hits)
	}
}

func TestHierarchyL2RefillsL1(t *testing.T) {
	p := arch.DefaultMachineParams()
	h := NewHierarchy(p)
	h.L2.Insert(9, vm.MakePTE(5, true))

	pte, lat, hit := h.Lookup(9)
	if !hit || pte.Frame() != 5 {
		t.Fatal("L2 hit failed")
	}
	if lat != p.L1TLBLatency+p.L2TLBLatency {
		t.Fatalf("L2-hit latency = %d", lat)
	}
	if !h.L1.Probe(9) {
		t.Fatal("L1 not refilled from L2")
	}
	if _, lat2, _ := h.Lookup(9); lat2 != p.L1TLBLatency {
		t.Fatalf("subsequent L1 hit latency = %d", lat2)
	}
}

func TestHierarchyFullMissCount(t *testing.T) {
	h := NewHierarchy(arch.DefaultMachineParams())
	if _, _, hit := h.Lookup(1); hit {
		t.Fatal("hit in empty hierarchy")
	}
	if h.FullMisses != 1 || h.Lookups != 1 {
		t.Fatalf("counters %d/%d", h.FullMisses, h.Lookups)
	}
	h.Fill(1, vm.MakePTE(2, true))
	if _, _, hit := h.Lookup(1); !hit {
		t.Fatal("miss after Fill")
	}
}

func TestDistancePrefetcher(t *testing.T) {
	d := NewDistancePrefetcher()
	// Misses at constant stride 10: after training, predicts +10.
	var pred uint64
	var ok bool
	for vpn := uint64(100); vpn <= 160; vpn += 10 {
		pred, ok = d.OnMiss(vpn)
	}
	if !ok || pred != 170 {
		t.Fatalf("prediction = %d, %v; want 170", pred, ok)
	}
	if d.Issued == 0 {
		t.Fatal("Issued not counted")
	}
	d.Reset()
	if _, ok := d.OnMiss(5); ok {
		t.Fatal("prediction after Reset")
	}
}

func TestDistancePrefetcherIrregular(t *testing.T) {
	d := NewDistancePrefetcher()
	// Pointer-chasing style VPN misses: accuracy should be near zero,
	// matching the paper's 0.06% observation.
	issued := 0
	x := uint64(12345)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if _, ok := d.OnMiss(x >> 40); ok {
			issued++
		}
	}
	if issued > 2500 {
		t.Fatalf("random misses produced %d predictions", issued)
	}
}

package arch

import (
	"testing"
	"testing/quick"
)

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x1234_5678)
	if got := a.Page(); got != 0x12345 {
		t.Errorf("Page() = %#x, want 0x12345", got)
	}
	if got := a.PageBase(); got != 0x1234_5000 {
		t.Errorf("PageBase() = %v", got)
	}
	if got := a.Offset(); got != 0x678 {
		t.Errorf("Offset() = %#x", got)
	}
	if got := a.Line(); got != 0x1234_5678>>6 {
		t.Errorf("Line() = %#x", got)
	}
	if got := a.LineBase(); got != a&^Addr(63) {
		t.Errorf("LineBase() = %v", got)
	}
}

func TestAddrDecomposition(t *testing.T) {
	// Page base + offset reconstructs the address, for all addresses.
	f := func(a uint64) bool {
		addr := Addr(a)
		return addr.PageBase()+Addr(addr.Offset()) == addr &&
			addr.LineBase() <= addr &&
			addr-addr.LineBase() < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometryConstants(t *testing.T) {
	if PageSize != 4096 || LineSize != 64 {
		t.Fatalf("geometry constants changed: page=%d line=%d", PageSize, LineSize)
	}
	if PageSize != 1<<PageShift || LineSize != 1<<LineShift {
		t.Fatal("shift constants inconsistent with sizes")
	}
}

func TestDefaultMachineParams(t *testing.T) {
	p := DefaultMachineParams()
	// Table III values.
	if p.L1TLBEntries != 64 || TLBWays != 4 || p.L1TLBLatency != 1 {
		t.Errorf("L1 TLB mismatch: %+v", p)
	}
	if p.L2TLBEntries != 1536 || p.L2TLBLatency != 7 {
		t.Errorf("L2 TLB mismatch: %+v", p)
	}
	if p.L1Latency != 4 || p.L2Latency != 12 || p.L3Latency != 40 {
		t.Errorf("cache latencies mismatch: %+v", p)
	}
	if p.L2Size != 256<<10 || p.L3Size != 2<<20 || CacheWays != 8 {
		t.Errorf("cache sizes mismatch: %+v", p)
	}
	if p.DRAMLatency != 120 {
		t.Errorf("DRAM latency = %d, want 120 (45ns at 2.66GHz)", p.DRAMLatency)
	}
	if p.STBEntries != 32 || p.IPBEntries != 32 {
		t.Errorf("STB/IPB sizes mismatch: %+v", p)
	}
	if p.LoadVALatency != 6 || p.InsertSTLTLatency != 4 {
		t.Errorf("instruction latencies mismatch: %+v", p)
	}
}

func TestEnumStrings(t *testing.T) {
	kinds := map[AccessKind]string{
		KindOther: "other", KindIndex: "index", KindRecord: "record",
		KindPageTable: "pagetable", KindSTLT: "stlt", KindSLB: "slb",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("AccessKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	cats := map[CostCategory]string{
		CatOther: "other", CatHash: "hash", CatTraverse: "traverse",
		CatTranslate: "translate", CatData: "data", CatSTLT: "stlt",
	}
	for c, want := range cats {
		if c.String() != want {
			t.Errorf("CostCategory(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	if AccessKind(200).String() == "" || CostCategory(200).String() == "" {
		t.Error("out-of-range enums should still render")
	}
}

// LineBase returns the address of the start of a's cache line.
func (a Addr) LineBase() Addr { return a &^ Addr(LineMask) }

package core

import (
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/cpu"
)

func newOSM(t *testing.T) (*OS, *cpu.Machine) {
	t.Helper()
	m := cpu.New(arch.DefaultMachineParams())
	return NewOS(m), m
}

func allocSTLT(t *testing.T, o *OS, rows, ways int) *STLT {
	t.Helper()
	st, err := o.STLTAlloc(rows, ways)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSTLTAllocValidation(t *testing.T) {
	o, _ := newOSM(t)
	if _, err := o.STLTAlloc(0, 4); err == nil {
		t.Error("accepted zero rows")
	}
	if _, err := o.STLTAlloc(12, 4); err == nil {
		t.Error("accepted non-power-of-two set count")
	}
	if _, err := o.STLTAlloc(64, 4); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if _, err := o.STLTAlloc(64, 4); err == nil {
		t.Error("second STLT allowed (at most one per process)")
	}
}

func TestInsertThenLoadVA(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	va := m.AS.Alloc(64)

	const integer = 0xABCD_1234
	if got := st.LoadVA(integer); got != 0 {
		t.Fatalf("empty table hit: %v", got)
	}
	st.InsertSTLT(integer, va)
	if got := st.LoadVA(integer); got != va {
		t.Fatalf("LoadVA = %v, want %v", got, va)
	}
	if st.Stats.Inserts != 1 || st.Stats.Hits != 1 {
		t.Fatalf("stats %+v", st.Stats)
	}
}

func TestLoadVAFillsSTB(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	va := m.AS.Alloc(64)
	st.InsertSTLT(5, va)
	st.LoadVA(5)
	if _, ok := m.STB.Lookup(va.Page()); !ok {
		t.Fatal("loadVA hit did not push the translation into the STB")
	}
}

func TestVAOnlyVariantSkipsSTB(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	st.Variant = VariantVAOnly
	va := m.AS.Alloc(64)
	st.InsertSTLT(5, va)
	if got := st.LoadVA(5); got != va {
		t.Fatalf("VA-only LoadVA = %v", got)
	}
	if _, ok := m.STB.Lookup(va.Page()); ok {
		t.Fatal("VA-only variant filled the STB")
	}
}

func TestInsertSTLTDroppedOnPageFault(t *testing.T) {
	o, _ := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	st.InsertSTLT(7, arch.Addr(0xdead_0000)) // unmapped: SPTW returns 0
	if st.Stats.InsertDrops != 1 || st.Stats.Inserts != 0 {
		t.Fatalf("stats %+v", st.Stats)
	}
	if got := st.LoadVA(7); got != 0 {
		t.Fatal("dropped insert became visible")
	}
}

func TestSubIntegerAliasing(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 64, 1) // direct-mapped, 64 sets
	vaA := m.AS.Alloc(64)

	// Two integers with the same set index and sub-integer: the
	// partial tag cannot distinguish them (potential false hit,
	// resolved by software validation).
	intA := uint64(0x3<<SubIntegerBits | 0x123)
	intB := uint64((64+0x3)<<SubIntegerBits | 0x123) // same set, same subint, different high bits
	st.InsertSTLT(intA, vaA)
	if got := st.LoadVA(intB); got != vaA {
		t.Fatalf("aliased LoadVA = %v, want false hit %v", got, vaA)
	}
	st.ReportFalseHit()
	if st.Stats.FalseHits != 1 {
		t.Fatal("false hit not recorded")
	}
	if st.Stats.MissRate() <= 0 {
		t.Fatal("false hits must count against the effective hit rate")
	}
}

func TestLFUReplacementPrefersColdRow(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 8, 4) // 2 sets of 4 ways
	// Fill set 0 (set index bits are just above the 12 sub-int bits).
	mkInt := func(sub uint64) uint64 { return sub } // set 0, given subint
	vas := make([]arch.Addr, 5)
	for i := range vas {
		vas[i] = m.AS.Alloc(64)
	}
	for i := 0; i < 4; i++ {
		st.InsertSTLT(mkInt(uint64(i+1)), vas[i])
	}
	// Heat rows 2..4 via hits; row with subint 1 stays cold.
	for n := 0; n < 50; n++ {
		for i := 1; i < 4; i++ {
			if st.LoadVA(mkInt(uint64(i+1))) == 0 {
				t.Fatal("unexpected miss while heating")
			}
		}
	}
	// Insert a fifth entry: the cold row (subint 1) must be evicted.
	st.InsertSTLT(mkInt(9), vas[4])
	if st.LoadVA(mkInt(9)) != vas[4] {
		t.Fatal("new entry absent")
	}
	if st.LoadVA(mkInt(1)) != 0 {
		t.Fatal("cold row survived; LFU replacement broken")
	}
	for i := 1; i < 4; i++ {
		if st.LoadVA(mkInt(uint64(i+1))) != vas[i] {
			t.Fatalf("hot row %d evicted", i)
		}
	}
}

func TestInsertUpdatesMatchingRow(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 64, 4)
	va1 := m.AS.Alloc(64)
	va2 := m.AS.Alloc(64)
	st.InsertSTLT(42, va1)
	st.InsertSTLT(42, va2) // same integer: in-place update, no second row
	if got := st.LoadVA(42); got != va2 {
		t.Fatalf("LoadVA = %v, want updated %v", got, va2)
	}
	if st.Stats.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1 (in-place update counts)", st.Stats.Replaced)
	}
}

func TestProbabilisticCounter(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 64, 4)
	va := m.AS.Alloc(64)
	st.InsertSTLT(3, va)

	// Counter starts at 0: first hit increments deterministically
	// (probability 2^-0 = 1).
	st.LoadVA(3)
	r := st.readRow(st.setIndex(3), 0)
	if r.Counter != 1 {
		t.Fatalf("counter after first hit = %d, want 1", r.Counter)
	}
	// Many hits: counter grows but saturates at 15.
	for i := 0; i < 100000; i++ {
		st.LoadVA(3)
	}
	r = st.readRow(st.setIndex(3), 0)
	if r.Counter < 2 || r.Counter > 15 {
		t.Fatalf("counter after many hits = %d", r.Counter)
	}
}

func TestIPBRejectsInvalidatedPage(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	va := m.AS.Alloc(arch.PageSize) // own page
	st.InsertSTLT(11, va)
	if st.LoadVA(11) != va {
		t.Fatal("setup miss")
	}
	// Unmap the page: flush_tlb path puts it into the IPB.
	m.AS.UnmapPage(va)
	if !m.IPB.Contains(va.Page()) {
		t.Fatal("unmap did not reach the IPB")
	}
	if got := st.LoadVA(11); got != 0 {
		t.Fatalf("LoadVA returned %v for an invalidated page", got)
	}
	if st.Stats.IPBRejects != 1 {
		t.Fatalf("IPBRejects = %d", st.Stats.IPBRejects)
	}
}

func TestIPBOverflowScrubsSTLT(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 1024, 4)

	// Insert translations for many single-page allocations.
	vas := make([]arch.Addr, 40)
	for i := range vas {
		vas[i] = m.AS.Alloc(arch.PageSize)
		st.InsertSTLT(uint64(i)<<SubIntegerBits|uint64(i), vas[i])
	}
	// Unmap more pages than the IPB holds (32): forces a clear+scrub.
	for i := 0; i < 34; i++ {
		m.AS.UnmapPage(vas[i])
	}
	if st.Stats.Scrubs == 0 {
		t.Fatal("IPB overflow did not scrub the STLT")
	}
	// After a scrub plus IPB filtering, no stale VA may be returned.
	for i := 0; i < 34; i++ {
		if got := st.LoadVA(uint64(i)<<SubIntegerBits | uint64(i)); got != 0 {
			t.Fatalf("stale VA %v returned after scrub (entry %d)", got, i)
		}
	}
	// Still-mapped entries must survive.
	alive := 0
	for i := 34; i < 40; i++ {
		if st.LoadVA(uint64(i)<<SubIntegerBits|uint64(i)) == vas[i] {
			alive++
		}
	}
	if alive == 0 {
		t.Fatal("scrub destroyed valid entries")
	}
}

func TestContextSwitchReplaysIPB(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	va := m.AS.Alloc(arch.PageSize)
	st.InsertSTLT(5, va)
	m.AS.UnmapPage(va)

	o.ContextSwitch()
	if !m.IPB.Contains(va.Page()) {
		t.Fatal("context switch lost the pending invalidation")
	}
	if st.LoadVA(5) != 0 {
		t.Fatal("stale translation visible after context switch")
	}
	if o.ContextSwitches != 1 {
		t.Fatal("switch not counted")
	}
}

func TestSTLTFree(t *testing.T) {
	o, _ := newOSM(t)
	allocSTLT(t, o, 64, 4)
	if err := o.STLTFree(); err != nil {
		t.Fatal(err)
	}
	if err := o.STLTFree(); err == nil {
		t.Fatal("double free allowed")
	}
	// A new table can be allocated afterwards.
	if _, err := o.STLTAlloc(64, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRecordMoveProtocol(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	oldVA := m.AS.Alloc(64)
	st.InsertSTLT(9, oldVA)

	// The KV store moves the record and re-issues insertSTLT
	// (Section III-F "Moving records").
	newVA := m.AS.Alloc(64)
	st.InsertSTLT(9, newVA)
	if got := st.LoadVA(9); got != newVA {
		t.Fatalf("LoadVA after move = %v, want %v", got, newVA)
	}
}

func TestSpliceTableID(t *testing.T) {
	integer := uint64(0xFFFF_FFFF)
	for id := 0; id < 4; id++ {
		got := SpliceTableID(integer, id, 2)
		if got&3 != uint64(id) {
			t.Fatalf("ID bits = %d, want %d", got&3, id)
		}
		if got>>2 != integer>>2 {
			t.Fatal("high bits disturbed")
		}
	}
	// Distinct IDs must yield distinct integers (no aliasing).
	a := SpliceTableID(integer, 0, 2)
	b := SpliceTableID(integer, 1, 2)
	if a == b {
		t.Fatal("IDs alias")
	}
	for _, bad := range []struct{ id, bits int }{{4, 2}, {-1, 2}, {0, 0}, {0, 13}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpliceTableID(%d,%d) did not panic", bad.id, bad.bits)
				}
			}()
			SpliceTableID(integer, bad.id, bad.bits)
		}()
	}
}

func TestMultiTableSharingNoAliasing(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 256, 4)
	vaH := m.AS.Alloc(64) // "hash table" record
	vaT := m.AS.Alloc(64) // "tree" record

	raw := uint64(0x5555_5555)
	intH := SpliceTableID(raw, 0, TableIDBits)
	intT := SpliceTableID(raw, 1, TableIDBits)
	st.InsertSTLT(intH, vaH)
	st.InsertSTLT(intT, vaT)
	if st.LoadVA(intH) != vaH || st.LoadVA(intT) != vaT {
		t.Fatal("shared STLT aliased two structures' keys")
	}
}

func TestHWCostMatchesTable1(t *testing.T) {
	if got := HWCostTotalBits(); got != 6694 {
		t.Fatalf("total = %d bits, paper says 6694", got)
	}
	wants := map[string]int{
		"CR_S":                64,
		"Invalid page buffer": 1158,
		"STB":                 4096,
		"Insertion buffer":    1376,
	}
	for _, c := range HWCost() {
		if w, ok := wants[c.Component]; !ok || c.Bits != w {
			t.Errorf("%s = %d bits, want %d", c.Component, c.Bits, w)
		}
	}
}

func TestOccupancy(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 64, 4)
	if st.Occupancy() != 0 {
		t.Fatal("fresh table not empty")
	}
	st.InsertSTLT(1, m.AS.Alloc(16))
	if occ := st.Occupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy = %v", occ)
	}
}

// Occupancy returns the fraction of valid rows (Figure 6's
// discussion of the balls-and-bins utilization problem).
func (t *STLT) Occupancy() float64 {
	valid := 0
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			if t.readRow(s, w).Valid() {
				valid++
			}
		}
	}
	return float64(valid) / float64(t.Rows())
}

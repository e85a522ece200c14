package core

import (
	"testing"
	"testing/quick"

	"addrkv/internal/arch"
	"addrkv/internal/vm"
)

// TestRowEncodeDecodeRoundTrip checks the packed 16-byte row format of
// Figure 5 (4-bit counter, 12-bit sub-integer, 48-bit VA, 64-bit PTE)
// through simulated memory.
func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	o, _ := newOSM(t)
	st := allocSTLT(t, o, 64, 4)

	f := func(counter uint8, sub uint16, va uint64, pte uint64) bool {
		r := Row{
			Counter: counter & 0xF,
			SubInt:  sub & subIntMask,
			VA:      arch.Addr(va & (1<<arch.VABits - 1)),
			PTE:     vm.PTE(pte),
		}
		st.writeRow(3, 1, r)
		got := st.readRow(3, 1)
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRowSizeIsSixteenBytes pins the row footprint the paper's Table I
// and Figure 5 depend on.
func TestRowSizeIsSixteenBytes(t *testing.T) {
	if RowSize != 16 {
		t.Fatalf("RowSize = %d", RowSize)
	}
	if CounterBits+SubIntegerBits != 16 {
		t.Fatalf("counter+subint = %d bits, must fit 2 bytes", CounterBits+SubIntegerBits)
	}
}

// TestRowsDoNotOverlap writes distinct rows into adjacent slots and
// verifies isolation (off-by-one layout bugs).
func TestRowsDoNotOverlap(t *testing.T) {
	o, m := newOSM(t)
	st := allocSTLT(t, o, 64, 4)
	vas := [4]arch.Addr{}
	for w := 0; w < 4; w++ {
		vas[w] = m.AS.Alloc(16)
		st.writeRow(2, w, Row{Counter: uint8(w), SubInt: uint16(w + 1), VA: vas[w], PTE: vm.MakePTE(uint64(w+10), true)})
	}
	for w := 0; w < 4; w++ {
		r := st.readRow(2, w)
		if r.Counter != uint8(w) || r.SubInt != uint16(w+1) || r.VA != vas[w] {
			t.Fatalf("row %d corrupted: %+v", w, r)
		}
	}
	// Neighboring sets untouched.
	if st.readRow(1, 3).Valid() || st.readRow(3, 0).Valid() {
		t.Fatal("writes leaked into neighboring sets")
	}
}

// TestSetIndexUsesBitsAboveSubInteger pins the Figure 6 bit layout:
// the set index comes from bits [12, 12+log2(sets)) and never overlaps
// the sub-integer.
func TestSetIndexUsesBitsAboveSubInteger(t *testing.T) {
	o, _ := newOSM(t)
	st := allocSTLT(t, o, 256, 4) // 64 sets
	// Changing only the low 12 bits must not change the set.
	a := st.setIndex(0xABC000 | 0x111)
	b := st.setIndex(0xABC000 | 0xFFF)
	if a != b {
		t.Fatal("sub-integer bits leak into the set index")
	}
	// Changing bit 12 must change the set.
	if st.setIndex(0) == st.setIndex(1<<SubIntegerBits) {
		t.Fatal("set index ignores bit 12")
	}
	// A larger table widens the index field upward; the sub-integer
	// stays the 12 LSBs.
	o2, _ := newOSM(t)
	wide := allocSTLT(t, o2, 512, 4) // 128 sets
	if wide.Sets() != 128 {
		t.Fatalf("sets = %d", wide.Sets())
	}
	top := uint64(1) << (SubIntegerBits + 6) // the bit the 128-set index adds
	if st.setIndex(0xABC000|top) != st.setIndex(0xABC000) {
		t.Fatal("64-set index reads a bit above its field")
	}
	if wide.setIndex(0xABC000|top) == wide.setIndex(0xABC000) {
		t.Fatal("128-set index ignores its widest bit")
	}
	if wide.setIndex(0xABC000)%64 != st.setIndex(0xABC000) {
		t.Fatal("widening moved the low index bits")
	}
	if subInt(0x123456) != 0x456 {
		t.Fatal("sub-integer moved")
	}
}

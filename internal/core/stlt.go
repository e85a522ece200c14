// Package core implements the paper's primary contribution: the system
// translation lookaside table (STLT) and its two instructions, loadVA
// and insertSTLT, executed by the system translation unit (STU), plus
// the OS support (system calls, lazy page-table coherence via the IPB,
// context switching).
//
// The STLT is a set-associative table in simulated *kernel* memory,
// physically contiguous, whose base physical address and size live in
// the CR_S register of the STU. Each 16-byte row is
//
//	| counter (4 bits) | sub-integer (12 bits) | VA (48 bits) | PTE (64 bits) |
//
// exactly as in Figure 5 of the paper.
package core

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/cpu"
	"addrkv/internal/trace"
	"addrkv/internal/vm"
)

// RowSize is the size of one STLT row in bytes.
const RowSize = 16

// SubIntegerBits is the width of the partial tag stored per row.
const SubIntegerBits = 12

// subIntMask extracts the sub-integer from a hash integer.
const subIntMask = (1 << SubIntegerBits) - 1

// CounterBits is the width of the per-row frequency counter.
const CounterBits = 4

const counterMax = (1 << CounterBits) - 1

// Row is a decoded STLT row.
type Row struct {
	Counter uint8
	SubInt  uint16
	VA      arch.Addr
	PTE     vm.PTE
}

// Valid reports whether the row holds a translation (VA != 0 means
// valid; a zero VA is the null pointer the paper uses to signal an
// empty row).
func (r Row) Valid() bool { return r.VA != 0 }

// CRS is the STU's control register pair: the physical base address of
// the (page-aligned, physically contiguous) STLT and its size.
type CRS struct {
	BasePA arch.Addr
	Rows   int
}

// Stats counts STLT fast-path events.
type Stats struct {
	Lookups     uint64 // loadVA executions
	Hits        uint64 // loadVA returned a non-zero VA
	IPBRejects  uint64 // potential hits suppressed by the IPB
	MultiMatch  uint64 // sets where >1 row matched the sub-integer
	Inserts     uint64 // insertSTLT executions that wrote a row
	InsertDrops uint64 // insertSTLT dropped by the SPTW (page fault)
	Replaced    uint64 // inserts that evicted a valid row
	Scrubs      uint64 // full-table scrubs (IPB overflow)
	FalseHits   uint64 // hits whose VA the software validation rejected
	Invalidates uint64 // rows cleared by the delete-side Invalidate hook
}

// STLT is the system translation lookaside table plus the STU state
// needed to execute loadVA and insertSTLT against a simulated machine.
type STLT struct {
	m  *cpu.Machine
	os *OS

	crs    CRS
	baseVA arch.Addr // kernel virtual base (for OS-side scrubbing)
	ways   int
	sets   int

	// Variant selects the ablation configuration of Figure 19:
	// the full design, the VA-only hardware design (no PTE caching,
	// no STB fill), or the software-only table (conventional loads
	// and stores, no new instructions).
	Variant Variant

	rng uint64 // xorshift state for the probabilistic counter

	walkBuf []vm.WalkStep // the SPTW's steps, reused across inserts

	Stats Stats
}

// Ways returns the set associativity.
func (t *STLT) Ways() int { return t.ways }

// Sets returns the number of sets.
func (t *STLT) Sets() int { return t.sets }

// Rows returns the total row count.
func (t *STLT) Rows() int { return t.sets * t.ways }

// SizeBytes returns the table's memory footprint.
func (t *STLT) SizeBytes() int { return t.Rows() * RowSize }

// rowPA returns the physical address of row w of set s.
func (t *STLT) rowPA(s, w int) arch.Addr {
	return t.crs.BasePA + arch.Addr((s*t.ways+w)*RowSize)
}

// setIndex extracts the set number from a hash integer. The
// sub-integer occupies the low SubIntegerBits bits and the set index
// the bits directly above it (Figure 6), so the two never overlap and
// a larger table only widens the index field.
func (t *STLT) setIndex(integer uint64) int {
	return int((integer >> SubIntegerBits) & uint64(t.sets-1))
}

// subInt extracts the partial tag from a hash integer.
func subInt(integer uint64) uint16 { return uint16(integer & subIntMask) }

// readRow fetches a row functionally from simulated physical memory.
// Word 0 holds the meta half-word in bytes 0-1 and the VA in bytes 2-7.
func (t *STLT) readRow(s, w int) Row {
	pa := t.rowPA(s, w)
	pm := t.m.AS.Phys
	w0 := pm.ReadU64(pa)
	meta := uint16(w0)
	return Row{
		Counter: uint8(meta >> SubIntegerBits),
		SubInt:  meta & subIntMask,
		VA:      arch.Addr(w0 >> 16),
		PTE:     vm.PTE(pm.ReadU64(pa + 8)),
	}
}

// writeRow stores a row functionally into simulated physical memory.
func (t *STLT) writeRow(s, w int, r Row) {
	pa := t.rowPA(s, w)
	pm := t.m.AS.Phys
	meta := uint16(r.Counter)<<SubIntegerBits | r.SubInt&subIntMask
	pm.WriteU64(pa, uint64(meta)|uint64(r.VA)<<16)
	pm.WriteU64(pa+8, uint64(r.PTE))
}

// readSet charges reading set s whole, the one set read every STLT
// operation makes (nothing on an untimed machine). The software table
// loads it through the ordinary virtual path, paying its own
// translations. The STU reads it physically: sets of <=4 ways fit one
// cache line, wider sets span multiple lines and cost proportionally
// more (Section III-E).
func (t *STLT) readSet(s int) {
	if t.m.Fast {
		return
	}
	if t.Variant == VariantSoftware {
		t.m.Touch(t.setVA(s), t.ways*RowSize, false, arch.KindSTLT, arch.CatSTLT)
		return
	}
	c := t.m.Caches.AccessRange(t.rowPA(s, 0), t.ways*RowSize, false, arch.KindSTLT)
	// Comparator scan: ~1 extra cycle per 4 ways (one line's worth of
	// rows compares in parallel; wider sets serialize).
	c += arch.Cycles(t.ways / 4)
	t.m.Compute(c, arch.CatSTLT)
}

// nextRand is a xorshift64 PRNG standing in for the STU's hardware
// random source ("the hardware generates the random number ahead of
// time; thus it is almost free").
func (t *STLT) nextRand() uint64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x
}

// bumpCounter applies the probabilistic increment of Section III-E: a
// counter at value x increments with probability 2^-x, so a 4-bit
// counter saturates after ~2^17 updates on average.
func (t *STLT) bumpCounter(r *Row) bool {
	if r.Counter >= counterMax {
		return false
	}
	if t.nextRand()&((1<<r.Counter)-1) != 0 {
		return false
	}
	r.Counter++
	return true
}

// LoadVA executes the loadVA instruction (Figure 8a): index the set,
// scan for a sub-integer match, filter through the IPB, bump the hit
// counter, push the VA->PTE pair into the STB, and return the record
// VA (0 on miss). The caller (the key-value store's fast path) must
// validate that the record at the returned VA actually holds the key.
func (t *STLT) LoadVA(integer uint64) arch.Addr {
	t.Stats.Lookups++
	s := t.setIndex(integer)
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvLoadVA, uint64(t.m.Cycles()), int64(s), int64(t.ways), 0)
	}
	t.m.Compute(t.opCost(t.m.Params.LoadVALatency), arch.CatSTLT)
	t.readSet(s)

	sub := subInt(integer)
	match := -1
	var r Row
	for w := 0; w < t.ways; w++ {
		rw := t.readRow(s, w)
		if rw.Valid() && rw.SubInt == sub {
			if match >= 0 {
				t.Stats.MultiMatch++
				// "one matching row is randomly selected"
				if t.nextRand()&1 == 0 {
					match, r = w, rw
				}
			} else {
				match, r = w, rw
			}
		}
	}
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvSTLTProbe, uint64(t.m.Cycles()), int64(s), int64(match), int64(sub))
	}
	if match < 0 {
		return 0
	}

	// IPB filter: recently invalidated pages must miss. The software
	// variant has no IPB; it relies on software validation alone.
	if t.Variant != VariantSoftware {
		ipbIdx := t.m.IPB.ContainsIdx(r.VA.Page())
		if t.m.Trace != nil {
			rejected := int64(0)
			if ipbIdx >= 0 {
				rejected = 1
			}
			t.m.Trace.Event(trace.EvIPBCheck, uint64(t.m.Cycles()), rejected, int64(ipbIdx), 0)
		}
		if ipbIdx >= 0 {
			t.Stats.IPBRejects++
			return 0
		}
	}

	// Counter update: a 4-bit store back into the row's line (already
	// in L1 after the scan — charge the write hit).
	if t.bumpCounter(&r) {
		t.writeRow(s, match, r)
	}
	c := t.m.Caches.Access(t.rowPA(s, match), true, arch.KindSTLT)
	t.m.Compute(c, arch.CatSTLT)

	// Forward the row to the MMU: the VA->PTE pair enters the STB so
	// the dependent record access skips the page walk. Only the full
	// design caches the PTE (Figure 19's STLT vs STLT-VA gap).
	if t.Variant == VariantFull {
		t.m.STB.Insert(r.VA.Page(), r.PTE)
	}

	t.Stats.Hits++
	return r.VA
}

// setVA returns the kernel virtual address of set s (software-variant
// accesses).
func (t *STLT) setVA(s int) arch.Addr {
	return t.baseVA + arch.Addr(s*t.ways*RowSize)
}

// ReportFalseHit records that software validation rejected the VA a
// LoadVA hit returned (partial-tag alias or stale record). The paper's
// footnote 2: "Software further validates if the returned VA is the
// correct one."
func (t *STLT) ReportFalseHit() { t.Stats.FalseHits++ }

// Invalidate clears every row of integer's set whose sub-integer
// matches — the delete-side coherence hook (Section III-F: the
// deallocation path updates the STLT so freed records cannot be
// returned). Validation alone cannot be trusted here: the allocator
// reuses the freed record's first word for a tagged free-list link,
// whose low byte can alias a legal key length, so a stale row may
// validate against its own freed record. Clearing a colliding
// neighbor's row is harmless — the next access re-inserts it.
func (t *STLT) Invalidate(integer uint64) {
	s := t.setIndex(integer)
	sub := subInt(integer)
	// The STU has no invalidate latency beyond the set read; the
	// software table still runs its scan loop.
	t.m.Compute(t.opCost(0), arch.CatSTLT)
	t.readSet(s)
	for w := 0; w < t.ways; w++ {
		r := t.readRow(s, w)
		if r.Valid() && r.SubInt == sub {
			t.writeRow(s, w, Row{})
			t.Stats.Invalidates++
		}
	}
}

// InsertSTLT executes the insertSTLT instruction (Figure 9): the SPTW
// resolves the PTE for va (dropping the insert on a page fault), then
// the insertion buffer writes a 16-byte row, replacing the
// least-frequently-used row of the set.
func (t *STLT) InsertSTLT(integer uint64, va arch.Addr) {
	t.m.Compute(t.opCost(t.m.Params.InsertSTLTLatency), arch.CatSTLT)
	// The full design's SPTW reuses the page table walker, but a fault
	// returns PTE=0 instead of raising an exception. The other variants,
	// and an untimed insert, record the PTE functionally, so scrubbing
	// stays coherent, without charging a walk.
	var pte vm.PTE
	if t.Variant == VariantFull && !t.m.Fast {
		pte = t.sptw(va)
	} else {
		pte, _ = t.m.AS.PT.Lookup(va)
	}
	if !pte.Present() {
		t.Stats.InsertDrops++
		return
	}

	s := t.setIndex(integer)
	t.readSet(s)
	w := t.victimWay(s, subInt(integer))
	if t.readRow(s, w).Valid() {
		t.Stats.Replaced++
	}
	t.writeRow(s, w, Row{Counter: 0, SubInt: subInt(integer), VA: va, PTE: pte})
	t.Stats.Inserts++
	if t.m.Fast {
		return
	}
	if t.Variant == VariantSoftware {
		t.m.Touch(t.setVA(s)+arch.Addr(w*RowSize), RowSize, true, arch.KindSTLT, arch.CatSTLT)
	} else {
		c := t.m.Caches.Access(t.rowPA(s, w), true, arch.KindSTLT)
		t.m.Compute(c, arch.CatSTLT)
	}
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvSTLTInsert, uint64(t.m.Cycles()), int64(s), int64(w), 0)
	}
}

// sptw is the simplified page table walker: the normal walker with
// exceptions disabled. PTE reads go through the data caches.
func (t *STLT) sptw(va arch.Addr) vm.PTE {
	var leafAt arch.Addr
	leafAt, t.walkBuf = t.m.AS.PT.Walk(va, t.walkBuf[:0])
	var c arch.Cycles
	for _, st := range t.walkBuf {
		c += t.m.Caches.Access(st.PTEAddr, false, arch.KindPageTable)
	}
	t.m.Compute(c, arch.CatSTLT)
	if leafAt == 0 {
		return 0
	}
	return vm.PTE(t.m.AS.Phys.ReadU64(leafAt))
}

// victimWay picks the row insertSTLT writes: a sub-integer match is
// updated in place; otherwise the first invalid row; otherwise the
// least-frequently-accessed row by counter (Section III-E).
func (t *STLT) victimWay(s int, sub uint16) int {
	firstInvalid := -1
	victim := 0
	victimCounter := uint8(counterMax + 1)
	for w := 0; w < t.ways; w++ {
		r := t.readRow(s, w)
		if !r.Valid() {
			if firstInvalid < 0 {
				firstInvalid = w
			}
			continue
		}
		if r.SubInt == sub {
			return w
		}
		if r.Counter < victimCounter {
			victim, victimCounter = w, r.Counter
		}
	}
	if firstInvalid >= 0 {
		return firstInvalid
	}
	return victim
}

// scrub walks the whole table and clears rows whose page translation
// is gone or changed — the expensive slow path taken when the IPB
// overflows ("If IPB is full, the kernel function clears it ... and
// updates STLT via searching the page table for invalidated PTEs").
func (t *STLT) scrub() {
	t.Stats.Scrubs++
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvSTLTScrub, uint64(t.m.Cycles()), int64(t.sets), int64(t.ways), 0)
	}
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			r := t.readRow(s, w)
			if !r.Valid() {
				continue
			}
			pte, ok := t.m.AS.PT.Lookup(r.VA)
			if !ok || pte != r.PTE {
				t.writeRow(s, w, Row{})
			}
		}
	}
	// Kernel-side cost model: one cache line visit per set; this is
	// rare, so a coarse charge is fine.
	if !t.m.Fast {
		t.m.Compute(arch.Cycles(t.sets), arch.CatOther)
	}
}

// MissRate returns misses/lookups over the Stats window.
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return 1 - float64(s.Hits-s.FalseHits)/float64(s.Lookups)
}

// validateGeometry checks an STLT shape request.
func validateGeometry(rows, ways int) error {
	if ways <= 0 || rows <= 0 {
		return fmt.Errorf("core: STLT rows (%d) and ways (%d) must be positive", rows, ways)
	}
	if rows%ways != 0 {
		return fmt.Errorf("core: STLT rows (%d) not divisible by ways (%d)", rows, ways)
	}
	sets := rows / ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("core: STLT set count %d is not a power of two", sets)
	}
	return nil
}

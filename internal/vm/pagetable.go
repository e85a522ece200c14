package vm

import (
	"fmt"

	"addrkv/internal/arch"
)

// PTE is a simulated page-table entry. The layout follows x86-64:
// bit 0 = present, bit 1 = writable, bits 12..51 = physical frame
// number shifted into place.
type PTE uint64

const (
	// PTEPresent marks a valid translation.
	PTEPresent PTE = 1 << 0
	// PTEWritable marks a writable page.
	PTEWritable PTE = 1 << 1

	pteFrameMask PTE = 0x000F_FFFF_FFFF_F000
)

// Present reports whether the entry holds a valid translation.
func (p PTE) Present() bool { return p&PTEPresent != 0 }

// Writable reports whether the mapped page is writable.
func (p PTE) Writable() bool { return p&PTEWritable != 0 }

// Frame returns the physical frame number the entry points to.
func (p PTE) Frame() uint64 { return uint64(p&pteFrameMask) >> arch.PageShift }

// PhysBase returns the physical address of the start of the mapped page.
func (p PTE) PhysBase() arch.Addr { return arch.Addr(p & pteFrameMask) }

// MakePTE builds a present PTE for frame fn.
func MakePTE(fn uint64, writable bool) PTE {
	p := PTE(fn<<arch.PageShift)&pteFrameMask | PTEPresent
	if writable {
		p |= PTEWritable
	}
	return p
}

const (
	// PTLevels is the number of radix levels (x86-64: PML4, PDPT,
	// PD, PT).
	PTLevels = 4
	// ptIndexBits is the number of VA bits consumed per level.
	ptIndexBits = 9
	ptEntries   = 1 << ptIndexBits // 512 entries per table page
)

// WalkStep records one page-table access performed during a walk: the
// physical address of the PTE that was read and its radix level
// (PTLevels = root ... 1 = leaf). The CPU model replays these through
// the cache hierarchy to charge walk latency ("the data cache caches
// data as well as page table entries, as modern architectures do").
type WalkStep struct {
	PTEAddr arch.Addr
	Level   int
}

// Leaf reports whether the step read the final (PT-level) entry that
// holds the actual translation.
func (s WalkStep) Leaf() bool { return s.Level == 1 }

// PageTable is a 4-level radix page table whose table pages live in
// simulated physical memory, exactly like a real OS page table.
//
// The host also remembers, per 2 MB region (one leaf table's reach), the
// frames of the three tables below the root on the region's way down,
// in a direct-mapped cache. With them Walk, Lookup and Translate find
// the leaf PTE without reading the levels above it, and Walk still
// reports the walk's four steps. An entry
// cannot go stale: Map writes an upper-level PTE only where it is
// absent, Unmap only zeroes leaves and no table page is ever freed, so
// an upper-level PTE once present never changes. A path with an absent
// level is not cached; such a walk descends from the root every time.
// A leaf PTE is either present or zero.
type PageTable struct {
	pm   *PhysMem
	root uint64 // frame number of the root table (CR3)

	mapped uint64 // number of present leaf entries

	paths [pathSlots]regionPath
}

const (
	// regionShift is log2 of the VA span one leaf table maps.
	regionShift = arch.PageShift + ptIndexBits
	pathSlots   = 512
)

// regionPath is one remembered path: tables[i] is the frame of the
// table at level PTLevels-1-i. A zero leaf-table frame marks an empty
// slot, since frame 0 is never allocated.
type regionPath struct {
	region uint64
	tables [PTLevels - 1]uint64
}

// NewPageTable allocates an empty page table in pm.
func NewPageTable(pm *PhysMem) *PageTable {
	return &PageTable{pm: pm, root: pm.AllocFrame()}
}

// MappedPages returns the number of present leaf translations.
func (pt *PageTable) MappedPages() uint64 { return pt.mapped }

// indexAt extracts the radix index for the given level (PTLevels..1).
func indexAt(va arch.Addr, level int) uint64 {
	shift := arch.PageShift + ptIndexBits*(level-1)
	return (uint64(va) >> shift) & (ptEntries - 1)
}

// pteAddr returns the physical address of the PTE for va at the given
// level within table frame tf.
func pteAddr(tf uint64, va arch.Addr, level int) arch.Addr {
	return arch.Addr(tf<<arch.PageShift + indexAt(va, level)*8)
}

// path returns the frames of the tables below the root on va's way
// down, as regionPath.tables holds them, and absent = 0. If an
// upper-level PTE on the way is absent, absent is its level; with
// alloc, the missing table is allocated and linked in instead.
func (pt *PageTable) path(va arch.Addr, alloc bool) (tables [PTLevels - 1]uint64, absent int) {
	region := uint64(va) >> regionShift
	slot := &pt.paths[region%pathSlots]
	if slot.region == region && slot.tables[PTLevels-2] != 0 {
		return slot.tables, 0
	}
	tf := pt.root
	for level := PTLevels; level > 1; level-- {
		a := pteAddr(tf, va, level)
		e := PTE(pt.pm.ReadU64(a))
		if !e.Present() {
			if !alloc {
				return tables, level
			}
			e = MakePTE(pt.pm.AllocFrame(), true)
			pt.pm.WriteU64(a, uint64(e))
		}
		tf = e.Frame()
		tables[PTLevels-level] = tf
	}
	slot.region, slot.tables = region, tables
	return tables, 0
}

// leaf returns the physical address of va's leaf PTE, or ok=false if a
// table on the way is absent (with alloc, it never is).
func (pt *PageTable) leaf(va arch.Addr, alloc bool) (a arch.Addr, ok bool) {
	tables, absent := pt.path(va, alloc)
	return pteAddr(tables[PTLevels-2], va, 1), absent == 0
}

// Map installs a translation va -> frame fn. Intermediate table pages
// are allocated on demand. Mapping an already-mapped page replaces the
// leaf entry (used when a page is migrated).
func (pt *PageTable) Map(va arch.Addr, fn uint64, writable bool) {
	if va.Offset() != 0 {
		panic(fmt.Sprintf("vm: Map of non-page-aligned address %v", va))
	}
	a, _ := pt.leaf(va, true)
	if !PTE(pt.pm.ReadU64(a)).Present() {
		pt.mapped++
	}
	pt.pm.WriteU64(a, uint64(MakePTE(fn, writable)))
}

// Unmap removes the translation for va's page and returns the frame it
// pointed to. It panics if the page was not mapped. Intermediate table
// pages are retained (like Linux, which frees them lazily if at all).
func (pt *PageTable) Unmap(va arch.Addr) uint64 {
	e, ok := pt.Lookup(va)
	if !ok {
		panic(fmt.Sprintf("vm: Unmap of unmapped address %v", va))
	}
	a, _ := pt.leaf(va, false)
	pt.pm.WriteU64(a, 0)
	pt.mapped--
	return e.Frame()
}

// Walk performs a functional radix walk for va. It returns the physical
// address of va's leaf PTE, or 0 if a level above the leaf is absent,
// and appends the PTE accesses made to steps, which it returns. It does
// not read the leaf: the caller reads it there, after whatever it
// charges for the steps. A failed walk still reports the accesses made
// up to the absent level, as a hardware walker would.
func (pt *PageTable) Walk(va arch.Addr, steps []WalkStep) (arch.Addr, []WalkStep) {
	tables, absent := pt.path(va, false)
	tf := pt.root
	for level := PTLevels; level > 1; level-- {
		steps = append(steps, WalkStep{PTEAddr: pteAddr(tf, va, level), Level: level})
		if level == absent {
			return 0, steps
		}
		tf = tables[PTLevels-level]
	}
	a := pteAddr(tf, va, 1)
	return a, append(steps, WalkStep{PTEAddr: a, Level: 1})
}

// Lookup is a walk without access recording, for functional use.
func (pt *PageTable) Lookup(va arch.Addr) (PTE, bool) {
	a, ok := pt.leaf(va, false)
	if !ok {
		return 0, false
	}
	e := PTE(pt.pm.ReadU64(a))
	return e, e.Present()
}

// Translate resolves va to a physical address, or ok=false if unmapped.
func (pt *PageTable) Translate(va arch.Addr) (arch.Addr, bool) {
	e, ok := pt.Lookup(va)
	if !ok {
		return 0, false
	}
	return e.PhysBase() + arch.Addr(va.Offset()), true
}

package vm

import (
	"encoding/binary"
	"fmt"

	"addrkv/internal/arch"
)

// Layout constants for simulated address spaces.
const (
	// UserHeapBase is where user heap allocations start.
	UserHeapBase arch.Addr = 0x0000_1000_0000
	// KernelBase is the start of the simulated kernel region. The
	// STLT lives here so user-level loads and stores can never reach
	// it (Section III-F: "We allocate the STLT in the kernel space").
	KernelBase arch.Addr = 0x0000_7000_0000_0000
)

// InvalidateFunc is called by the address space whenever a virtual
// page's translation is removed or changed, *before* the page table is
// updated — this models the kernel's flush_tlb_* calls that the paper
// instruments to maintain the IPB (Section III-D1).
type InvalidateFunc func(pageVA arch.Addr)

// AddressSpace is one simulated process address space: a page table
// plus a heap allocator. All indexing structures and records used by
// the simulated key-value store are allocated from here.
type AddressSpace struct {
	Phys *PhysMem
	PT   *PageTable

	// OnInvalidate, if non-nil, is invoked for every page whose
	// translation is about to be removed or replaced.
	OnInvalidate InvalidateFunc

	brk       arch.Addr           // next unmapped heap VA
	mappedEnd arch.Addr           // heap VAs below this are mapped
	kernelBrk arch.Addr           // next unmapped kernel VA
	freeLists map[int][]arch.Addr // size class (power of two) -> free VAs
}

// NewAddressSpace creates an address space with a fresh page table in
// pm.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	return &AddressSpace{
		Phys:      pm,
		PT:        NewPageTable(pm),
		brk:       UserHeapBase,
		mappedEnd: UserHeapBase,
		kernelBrk: KernelBase,
		freeLists: map[int][]arch.Addr{},
	}
}

// sizeClass rounds n up to the allocator granule: powers of two from 16
// bytes up to a page, then whole pages.
func sizeClass(n int) int {
	if n <= 0 {
		panic("vm: allocation of non-positive size")
	}
	if n > arch.PageSize {
		return (n + arch.PageSize - 1) &^ arch.PageMask
	}
	c := 16
	for c < n {
		c <<= 1
	}
	return c
}

// Alloc allocates size bytes of heap and returns its virtual address.
// Allocations of a power-of-two size class never straddle a cache-line
// boundary unless larger than a line, mirroring a slab/jemalloc-style
// allocator (Redis uses jemalloc). Pages are mapped eagerly.
func (as *AddressSpace) Alloc(size int) arch.Addr {
	c := sizeClass(size)
	if lst := as.freeLists[c]; len(lst) > 0 {
		va := lst[len(lst)-1]
		as.freeLists[c] = lst[:len(lst)-1]
		return va
	}
	// Carve from the bump pointer, aligned to the class size (or
	// page-aligned for multi-page classes).
	align := arch.Addr(c)
	if c > arch.PageSize {
		align = arch.PageSize
	}
	va := (as.brk + align - 1) &^ (align - 1)
	as.brk = va + arch.Addr(c)
	as.ensureMapped(va, c)
	return va
}

// Free returns an allocation of the given size (the size passed to
// Alloc) to the allocator. Like a real free-list allocator (jemalloc,
// tcmalloc), it stores its list linkage *inside* the freed block,
// overwriting the first word — so stale pointers into freed records
// no longer see the old contents, which is what lets software
// validation catch dangling STLT/SLB entries after a delete.
func (as *AddressSpace) Free(va arch.Addr, size int) {
	c := sizeClass(size)
	prev := arch.Addr(0)
	if lst := as.freeLists[c]; len(lst) > 0 {
		prev = lst[len(lst)-1]
	}
	as.WriteU64(va, uint64(prev)|1) // in-block free-list link (tagged)
	as.freeLists[c] = append(as.freeLists[c], va)
}

// ensureMapped maps every page overlapping [va, va+size).
func (as *AddressSpace) ensureMapped(va arch.Addr, size int) {
	for p := va.PageBase(); p < va+arch.Addr(size); p += arch.PageSize {
		if p >= as.mappedEnd {
			as.PT.Map(p, as.Phys.AllocFrame(), true)
		}
	}
	if end := (va + arch.Addr(size) + arch.PageMask).PageBase(); end > as.mappedEnd {
		as.mappedEnd = end
	}
}

// AllocKernel allocates n physically contiguous, page-aligned bytes in
// the kernel region and returns (virtual base, physical base). Used by
// the STLTalloc system call.
func (as *AddressSpace) AllocKernel(n int) (arch.Addr, arch.Addr) {
	pages := (n + arch.PageMask) >> arch.PageShift
	if pages == 0 {
		pages = 1
	}
	first := as.Phys.AllocContiguous(pages)
	va := as.kernelBrk
	as.kernelBrk += arch.Addr(pages << arch.PageShift)
	for i := 0; i < pages; i++ {
		as.PT.Map(va+arch.Addr(i<<arch.PageShift), first+uint64(i), true)
	}
	return va, arch.Addr(first << arch.PageShift)
}

// FreeKernel unmaps and frees a kernel allocation made by AllocKernel.
func (as *AddressSpace) FreeKernel(va arch.Addr, n int) {
	pages := (n + arch.PageMask) >> arch.PageShift
	if pages == 0 {
		pages = 1
	}
	for i := 0; i < pages; i++ {
		p := va + arch.Addr(i<<arch.PageShift)
		as.invalidate(p)
		fn := as.PT.Unmap(p)
		as.Phys.FreeFrame(fn)
	}
}

// UnmapPage removes the translation for the page containing va and
// frees its frame, invoking the invalidation hook first. It models
// page reclaim (swap-out / migration away).
func (as *AddressSpace) UnmapPage(va arch.Addr) {
	p := va.PageBase()
	as.invalidate(p)
	fn := as.PT.Unmap(p)
	as.Phys.FreeFrame(fn)
}

// RemapPage moves the page containing va to a fresh physical frame,
// copying its contents — a page migration. The invalidation hook fires
// because the old VA->PA translation becomes stale.
func (as *AddressSpace) RemapPage(va arch.Addr) {
	p := va.PageBase()
	e, ok := as.PT.Lookup(p)
	if !ok {
		panic(fmt.Sprintf("vm: RemapPage of unmapped address %v", va))
	}
	var buf [arch.PageSize]byte
	as.Phys.ReadAt(e.PhysBase(), buf[:])
	as.invalidate(p)
	old := e.Frame()
	nf := as.Phys.AllocFrame()
	as.Phys.WriteAt(arch.Addr(nf<<arch.PageShift), buf[:])
	as.PT.Map(p, nf, e.Writable())
	as.Phys.FreeFrame(old)
}

func (as *AddressSpace) invalidate(pageVA arch.Addr) {
	if as.OnInvalidate != nil {
		as.OnInvalidate(pageVA)
	}
}

// Translate resolves a virtual address functionally (no timing).
func (as *AddressSpace) Translate(va arch.Addr) (arch.Addr, bool) {
	return as.PT.Translate(va)
}

// ReadAt reads len(buf) bytes from virtual memory (functional).
func (as *AddressSpace) ReadAt(va arch.Addr, buf []byte) { as.copyAt(va, buf, false) }

// WriteAt writes buf to virtual memory (functional).
func (as *AddressSpace) WriteAt(va arch.Addr, buf []byte) { as.copyAt(va, buf, true) }

// copyAt copies between buf and virtual memory at va, a page at a time.
func (as *AddressSpace) copyAt(va arch.Addr, buf []byte, write bool) {
	for len(buf) > 0 {
		pa, ok := as.Translate(va)
		if !ok {
			panic(fmt.Sprintf("vm: access to unmapped address %v (write %v)", va, write))
		}
		n := min(arch.PageSize-int(va.Offset()), len(buf))
		if write {
			as.Phys.WriteAt(pa, buf[:n])
		} else {
			as.Phys.ReadAt(pa, buf[:n])
		}
		buf = buf[n:]
		va += arch.Addr(n)
	}
}

// ReadU64 reads a little-endian 64-bit word at va (functional).
func (as *AddressSpace) ReadU64(va arch.Addr) uint64 {
	var b [8]byte
	as.ReadAt(va, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word at va (functional).
func (as *AddressSpace) WriteU64(va arch.Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	as.WriteAt(va, b[:])
}

// Package vm implements the simulated memory system underneath the
// key-value store: physical memory organized in 4 KB frames, an
// x86-64-style 4-level radix page table with a functional walker, and
// per-process address spaces with a heap allocator.
//
// Indexing structures (internal/index) allocate their nodes and records
// from a vm.AddressSpace, so every pointer they chase is a simulated
// virtual address whose translation and data access can be charged with
// realistic TLB/cache/page-walk timing by internal/cpu.
package vm

import (
	"encoding/binary"
	"fmt"

	"addrkv/internal/arch"
)

// PhysMem is the simulated physical memory: 4 KB frames handed out in
// order from 2 MB slabs, so frame fn is page fn%512 of slab fn/512 and
// frames with adjacent numbers are adjacent in host memory as well. A
// bitmap says which frames are live; touching one that is not panics.
// Frame 0 is reserved so that physical address 0 never refers to valid
// data (it plays the role of a null PTE target).
type PhysMem struct {
	slabs []*[slabSize]byte
	live  []uint64 // bit fn%64 of word fn/64 is set while frame fn is allocated
	next  uint64   // first frame never handed out
	free  []uint64 // free list of frame numbers
}

const (
	slabSize   = 2 << 20
	slabFrames = slabSize >> arch.PageShift
)

// NewPhysMem returns an empty physical memory.
func NewPhysMem() *PhysMem { return &PhysMem{next: 1} }

// AllocFrame allocates one zeroed frame and returns its frame number:
// the most recently freed one if any, else the next never-used one.
func (pm *PhysMem) AllocFrame() uint64 {
	n := len(pm.free)
	if n == 0 {
		return pm.AllocContiguous(1)
	}
	fn := pm.free[n-1]
	pm.free = pm.free[:n-1]
	pm.take(fn, 1)
	clear(pm.at(arch.Addr(fn << arch.PageShift)))
	return fn
}

// AllocContiguous allocates n physically contiguous zeroed frames and
// returns the first frame number. The STLT requires physically
// contiguous backing (Section III-F: "STLTalloc allocates contiguous
// memory for STLT").
func (pm *PhysMem) AllocContiguous(n int) uint64 {
	if n <= 0 {
		panic("vm: AllocContiguous with non-positive count")
	}
	first := pm.next
	pm.next += uint64(n)
	for uint64(len(pm.slabs))*slabFrames < pm.next {
		pm.slabs = append(pm.slabs, new([slabSize]byte))
		pm.live = append(pm.live, make([]uint64, slabFrames/64)...)
	}
	pm.take(first, n)
	return first
}

// take marks the n frames from first live.
func (pm *PhysMem) take(first uint64, n int) {
	for fn := first; fn < first+uint64(n); fn++ {
		pm.live[fn/64] |= 1 << (fn % 64)
	}
}

// FreeFrame releases a frame back to the allocator.
func (pm *PhysMem) FreeFrame(fn uint64) {
	if !pm.FrameAllocated(fn) {
		panic(fmt.Sprintf("vm: FreeFrame of invalid frame %d", fn))
	}
	pm.live[fn/64] &^= 1 << (fn % 64)
	pm.free = append(pm.free, fn)
}

// FrameAllocated reports whether frame fn is currently allocated.
func (pm *PhysMem) FrameAllocated(fn uint64) bool {
	return fn/64 < uint64(len(pm.live)) && pm.live[fn/64]&(1<<(fn%64)) != 0
}

// at returns the bytes from pa to the end of its frame. It panics if
// the frame is not allocated.
func (pm *PhysMem) at(pa arch.Addr) []byte {
	fn := pa.Page()
	if !pm.FrameAllocated(fn) {
		panic(fmt.Sprintf("vm: access to unallocated physical address %v", pa))
	}
	off := (fn % slabFrames) << arch.PageShift
	return pm.slabs[fn/slabFrames][off+pa.Offset() : off+arch.PageSize]
}

// Prefetch asks the host to start fetching the lines of [pa, pa+n) that
// lie in pa's frame into its caches, so that a copy made after other
// work finds them there. It is a hint and nothing else: it reads no
// simulated state, changes nothing and never panics. A frame beyond the
// slabs is skipped; the access that follows still checks the frame.
func (pm *PhysMem) Prefetch(pa arch.Addr, n int) {
	fn := pa.Page()
	if fn >= uint64(len(pm.slabs))*slabFrames {
		return
	}
	f := pm.slabs[fn/slabFrames][(fn%slabFrames)<<arch.PageShift:][:arch.PageSize]
	end := min(int(pa.Offset())+n, arch.PageSize)
	for off := int(pa.Offset()) &^ arch.LineMask; off < end; off += arch.LineSize {
		prefetch(&f[off])
	}
}

// ReadAt copies len(buf) bytes starting at physical address pa into
// buf. The range may span contiguous frames.
func (pm *PhysMem) ReadAt(pa arch.Addr, buf []byte) {
	for len(buf) > 0 {
		n := copy(buf, pm.at(pa))
		buf = buf[n:]
		pa += arch.Addr(n)
	}
}

// WriteAt copies buf into physical memory starting at pa. The range
// may span contiguous frames.
func (pm *PhysMem) WriteAt(pa arch.Addr, buf []byte) {
	for len(buf) > 0 {
		n := copy(pm.at(pa), buf)
		buf = buf[n:]
		pa += arch.Addr(n)
	}
}

// ReadU64 reads a little-endian 64-bit word at pa (must not span frames
// unless contiguous).
func (pm *PhysMem) ReadU64(pa arch.Addr) uint64 {
	if f := pm.at(pa); len(f) >= 8 {
		return binary.LittleEndian.Uint64(f)
	}
	var b [8]byte
	pm.ReadAt(pa, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word at pa.
func (pm *PhysMem) WriteU64(pa arch.Addr, v uint64) {
	if f := pm.at(pa); len(f) >= 8 {
		binary.LittleEndian.PutUint64(f, v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	pm.WriteAt(pa, b[:])
}

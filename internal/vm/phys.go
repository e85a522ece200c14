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

// PhysMem is the simulated physical memory: a growable set of 4 KB
// frames. Frame 0 is reserved so that physical address 0 never refers
// to valid data (it plays the role of a null PTE target).
type PhysMem struct {
	frames    [][]byte // frame number -> backing storage (nil = unallocated)
	free      []uint64 // free list of frame numbers
	allocated uint64   // number of currently allocated frames
	peak      uint64   // high-water mark of allocated frames
}

// NewPhysMem returns an empty physical memory.
func NewPhysMem() *PhysMem {
	pm := &PhysMem{}
	pm.frames = append(pm.frames, nil) // reserve frame 0
	return pm
}

// AllocFrame allocates one zeroed frame and returns its frame number.
func (pm *PhysMem) AllocFrame() uint64 {
	var fn uint64
	if n := len(pm.free); n > 0 {
		fn = pm.free[n-1]
		pm.free = pm.free[:n-1]
		pm.frames[fn] = make([]byte, arch.PageSize)
	} else {
		fn = uint64(len(pm.frames))
		pm.frames = append(pm.frames, make([]byte, arch.PageSize))
	}
	pm.allocated++
	if pm.allocated > pm.peak {
		pm.peak = pm.allocated
	}
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
	first := uint64(len(pm.frames))
	for i := 0; i < n; i++ {
		pm.frames = append(pm.frames, make([]byte, arch.PageSize))
	}
	pm.allocated += uint64(n)
	if pm.allocated > pm.peak {
		pm.peak = pm.allocated
	}
	return first
}

// FreeFrame releases a frame back to the allocator.
func (pm *PhysMem) FreeFrame(fn uint64) {
	if fn == 0 || fn >= uint64(len(pm.frames)) || pm.frames[fn] == nil {
		panic(fmt.Sprintf("vm: FreeFrame of invalid frame %d", fn))
	}
	pm.frames[fn] = nil
	pm.free = append(pm.free, fn)
	pm.allocated--
}

// FrameAllocated reports whether frame fn is currently allocated.
func (pm *PhysMem) FrameAllocated(fn uint64) bool {
	return fn != 0 && fn < uint64(len(pm.frames)) && pm.frames[fn] != nil
}

// AllocatedFrames returns the number of currently allocated frames.
func (pm *PhysMem) AllocatedFrames() uint64 { return pm.allocated }

// PeakFrames returns the peak number of simultaneously allocated frames.
func (pm *PhysMem) PeakFrames() uint64 { return pm.peak }

func (pm *PhysMem) frame(pa arch.Addr) []byte {
	fn := pa.Page()
	if fn >= uint64(len(pm.frames)) || pm.frames[fn] == nil {
		panic(fmt.Sprintf("vm: access to unallocated physical address %v", pa))
	}
	return pm.frames[fn]
}

// ReadAt copies len(buf) bytes starting at physical address pa into
// buf. The range may span contiguous frames.
func (pm *PhysMem) ReadAt(pa arch.Addr, buf []byte) {
	for len(buf) > 0 {
		n := copy(buf, pm.frame(pa)[pa.Offset():])
		buf = buf[n:]
		pa += arch.Addr(n)
	}
}

// WriteAt copies buf into physical memory starting at pa. The range
// may span contiguous frames.
func (pm *PhysMem) WriteAt(pa arch.Addr, buf []byte) {
	for len(buf) > 0 {
		n := copy(pm.frame(pa)[pa.Offset():], buf)
		buf = buf[n:]
		pa += arch.Addr(n)
	}
}

// ReadU64 reads a little-endian 64-bit word at pa (must not span frames
// unless contiguous).
func (pm *PhysMem) ReadU64(pa arch.Addr) uint64 {
	if f := pm.frame(pa)[pa.Offset():]; len(f) >= 8 {
		return binary.LittleEndian.Uint64(f)
	}
	var b [8]byte
	pm.ReadAt(pa, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word at pa.
func (pm *PhysMem) WriteU64(pa arch.Addr, v uint64) {
	if f := pm.frame(pa)[pa.Offset():]; len(f) >= 8 {
		binary.LittleEndian.PutUint64(f, v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	pm.WriteAt(pa, b[:])
}

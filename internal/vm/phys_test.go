package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"addrkv/internal/arch"
)

func TestPhysAllocFree(t *testing.T) {
	pm := NewPhysMem()
	f1 := pm.AllocFrame()
	f2 := pm.AllocFrame()
	if f1 == 0 || f2 == 0 || f1 == f2 {
		t.Fatalf("bad frame numbers %d %d", f1, f2)
	}
	if n := liveFrames(pm); n != 2 {
		t.Fatalf("%d live frames, want 2", n)
	}
	pm.FreeFrame(f1)
	if pm.FrameAllocated(f1) {
		t.Fatal("freed frame still allocated")
	}
	f3 := pm.AllocFrame()
	if f3 != f1 {
		t.Errorf("free list not reused: got %d want %d", f3, f1)
	}
	if pm.next != 3 {
		t.Errorf("first never-used frame = %d, want 3: reuse took a new frame", pm.next)
	}
}

// liveFrames counts the frames currently allocated.
func liveFrames(pm *PhysMem) (n int) {
	for _, w := range pm.live {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestPhysFreeInvalidPanics(t *testing.T) {
	pm := NewPhysMem()
	for _, fn := range []uint64{0, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreeFrame(%d) did not panic", fn)
				}
			}()
			pm.FreeFrame(fn)
		}()
	}
}

func TestPhysReadWriteSpanningFrames(t *testing.T) {
	pm := NewPhysMem()
	first := pm.AllocContiguous(3)
	base := arch.Addr(first << arch.PageShift)

	data := make([]byte, 2*arch.PageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	pm.WriteAt(base+50, data)
	got := make([]byte, len(data))
	pm.ReadAt(base+50, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-frame read/write mismatch")
	}
}

func TestPhysU64RoundTrip(t *testing.T) {
	pm := NewPhysMem()
	fn := pm.AllocFrame()
	pa := arch.Addr(fn << arch.PageShift)
	const v uint64 = 0xDEADBEEF_CAFEF00D
	pm.WriteU64(pa+8, v)
	if got := pm.ReadU64(pa + 8); got != v {
		t.Fatalf("ReadU64 = %#x, want %#x", got, v)
	}
}

func TestPhysUnallocatedAccessPanics(t *testing.T) {
	pm := NewPhysMem()
	defer func() {
		if recover() == nil {
			t.Error("access to unallocated frame did not panic")
		}
	}()
	var b [8]byte
	pm.ReadAt(arch.Addr(50<<arch.PageShift), b[:])
}

func TestContiguousFramesAreAdjacent(t *testing.T) {
	pm := NewPhysMem()
	pm.AllocFrame() // disturb
	first := pm.AllocContiguous(5)
	for i := 0; i < 5; i++ {
		if !pm.FrameAllocated(first + uint64(i)) {
			t.Fatalf("frame %d of contiguous range unallocated", i)
		}
	}
}

// TestContiguousAcrossSlabBoundary: a contiguous run that starts near
// the end of one slab continues in the next, frame numbers and bytes
// alike.
func TestContiguousAcrossSlabBoundary(t *testing.T) {
	pm := NewPhysMem()
	for pm.next < slabFrames-2 {
		pm.AllocFrame()
	}
	first := pm.AllocContiguous(5)
	if first != slabFrames-2 || len(pm.slabs) != 2 {
		t.Fatalf("run starts at frame %d over %d slabs, want %d over 2", first, len(pm.slabs), slabFrames-2)
	}
	for i := uint64(0); i < 5; i++ {
		if !pm.FrameAllocated(first + i) {
			t.Fatalf("frame %d of the run is not allocated", i)
		}
	}
	base := arch.Addr(first << arch.PageShift)
	data := make([]byte, 5*arch.PageSize-100)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	pm.WriteAt(base+50, data)
	got := make([]byte, len(data))
	pm.ReadAt(base+50, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read across the slab boundary differs from what was written")
	}
	if v := pm.ReadU64(base + 2*arch.PageSize - 4); v != binary.LittleEndian.Uint64(data[2*arch.PageSize-54:]) {
		t.Fatalf("ReadU64 across the slab boundary = %#x", v)
	}
}

// TestReusedFrameIsZeroed: a frame handed out again after a free reads
// as zeros, like a fresh one.
func TestReusedFrameIsZeroed(t *testing.T) {
	pm := NewPhysMem()
	fn := pm.AllocFrame()
	pa := arch.Addr(fn << arch.PageShift)
	pm.WriteAt(pa, bytes.Repeat([]byte{0xAB}, arch.PageSize))
	pm.FreeFrame(fn)
	if again := pm.AllocFrame(); again != fn {
		t.Fatalf("AllocFrame = %d, want the freed %d", again, fn)
	}
	got := make([]byte, arch.PageSize)
	pm.ReadAt(pa, got)
	if !bytes.Equal(got, make([]byte, arch.PageSize)) {
		t.Fatal("reused frame is not zeroed")
	}
}

// TestDeadFrameAccessPanics: frame 0, a frame never handed out (inside
// an existing slab and beyond every slab), and a freed frame all panic
// on access and on FreeFrame.
func TestDeadFrameAccessPanics(t *testing.T) {
	pm := NewPhysMem()
	live := pm.AllocFrame()
	freed := pm.AllocFrame()
	pm.FreeFrame(freed)
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, fn := range []uint64{0, freed, 50, 10 * slabFrames} {
		pa := arch.Addr(fn << arch.PageShift)
		panics(fmt.Sprintf("ReadU64 of frame %d", fn), func() { pm.ReadU64(pa) })
		panics(fmt.Sprintf("WriteAt of frame %d", fn), func() { pm.WriteAt(pa, []byte{1}) })
		panics(fmt.Sprintf("FreeFrame(%d)", fn), func() { pm.FreeFrame(fn) })
	}
	end := arch.Addr(live<<arch.PageShift) + arch.PageSize - 4
	panics("a read running off a live frame into a dead one", func() { pm.ReadU64(end) })
}

// TestPrefetchIsInvisible: Prefetch of frame 0, of live, freed and
// never-allocated frames inside the slabs, of frames beyond them, and
// of ranges running to and past the end of a frame or a slab, never
// panics and leaves contents, the live bitmap, the free list and the
// never-used mark as they were.
func TestPrefetchIsInvisible(t *testing.T) {
	pm := NewPhysMem()
	live := pm.AllocFrame()
	freed := pm.AllocFrame()
	pm.FreeFrame(freed)
	pm.AllocContiguous(int(slabFrames - pm.next)) // slab 0 is full
	pm.AllocFrame()                               // slab 1 is begun
	rng := rand.New(rand.NewSource(3))
	for fn := uint64(1); fn < pm.next; fn++ {
		if pm.FrameAllocated(fn) {
			page := make([]byte, arch.PageSize)
			rng.Read(page)
			pm.WriteAt(arch.Addr(fn<<arch.PageShift), page)
		}
	}
	var slabs [][]byte
	for _, s := range pm.slabs {
		slabs = append(slabs, bytes.Clone(s[:]))
	}
	liveBits, free, next := slices.Clone(pm.live), slices.Clone(pm.free), pm.next

	frames := []uint64{0, live, freed, slabFrames - 1, slabFrames, slabFrames + 1, 2 * slabFrames, 10 * slabFrames, 1<<40 - 1}
	offsets := []int{0, 1, 8, 63, 64, 1000, arch.PageSize - arch.LineSize, arch.PageSize - 8, arch.PageSize - 1}
	for _, fn := range frames {
		for _, off := range offsets {
			pa := arch.Addr(fn<<arch.PageShift + uint64(off))
			for _, n := range []int{-1, 0, 1, 8, 64, 65, arch.PageSize - off, arch.PageSize, 1 << 20, math.MaxInt} {
				pm.Prefetch(pa, n)
			}
		}
	}
	pm.Prefetch(arch.Addr(math.MaxUint64), arch.PageSize)

	for i, s := range pm.slabs {
		if i >= len(slabs) || !bytes.Equal(s[:], slabs[i]) {
			t.Fatalf("slab %d changed (%d slabs, were %d)", i, len(pm.slabs), len(slabs))
		}
	}
	if len(pm.slabs) != len(slabs) || !slices.Equal(pm.live, liveBits) || !slices.Equal(pm.free, free) || pm.next != next {
		t.Fatalf("allocator state changed: %d slabs, %d live frames, free %v, next %d; were %d slabs, free %v, next %d",
			len(pm.slabs), liveFrames(pm), pm.free, pm.next, len(slabs), free, next)
	}
}

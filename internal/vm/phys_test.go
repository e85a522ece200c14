package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	if pm.AllocatedFrames() != 2 {
		t.Fatalf("AllocatedFrames = %d", pm.AllocatedFrames())
	}
	pm.FreeFrame(f1)
	if pm.FrameAllocated(f1) {
		t.Fatal("freed frame still allocated")
	}
	f3 := pm.AllocFrame()
	if f3 != f1 {
		t.Errorf("free list not reused: got %d want %d", f3, f1)
	}
	if pm.PeakFrames() != 2 {
		t.Errorf("PeakFrames = %d, want 2", pm.PeakFrames())
	}
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

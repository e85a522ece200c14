package vm

import (
	"bytes"
	"math/rand"
	"testing"

	"addrkv/internal/arch"
)

func newAS() *AddressSpace { return NewAddressSpace(NewPhysMem()) }

func TestAllocReadWrite(t *testing.T) {
	as := newAS()
	va := as.Alloc(100)
	if va < UserHeapBase {
		t.Fatalf("heap allocation below base: %v", va)
	}
	data := []byte("hello simulated world")
	as.WriteAt(va, data)
	got := make([]byte, len(data))
	as.ReadAt(va, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

func TestAllocAlignment(t *testing.T) {
	as := newAS()
	for _, size := range []int{1, 16, 17, 64, 100, 128, 4096} {
		va := as.Alloc(size)
		c := sizeClass(size)
		align := arch.Addr(c)
		if c > arch.PageSize {
			align = arch.PageSize
		}
		if va&(align-1) != 0 {
			t.Errorf("Alloc(%d) = %v not aligned to %d", size, va, align)
		}
	}
}

func TestAllocSmallNeverStraddlesLine(t *testing.T) {
	as := newAS()
	for i := 0; i < 500; i++ {
		size := 1 + i%64
		va := as.Alloc(size)
		c := sizeClass(size)
		if c <= arch.LineSize && va.Line() != (va+arch.Addr(c)-1).Line() {
			t.Fatalf("class-%d allocation at %v straddles a line", c, va)
		}
	}
}

func TestFreeReuse(t *testing.T) {
	as := newAS()
	va := as.Alloc(64)
	as.Free(va, 64)
	if got := as.Alloc(64); got != va {
		t.Errorf("free list not LIFO-reused: got %v want %v", got, va)
	}
}

func TestSizeClassRounding(t *testing.T) {
	cases := map[int]int{
		1: 16, 16: 16, 17: 32, 33: 64, 100: 128, 128: 128,
		129: 256, 4096: 4096, 4097: 8192, 9000: 12288,
	}
	for in, want := range cases {
		if got := sizeClass(in); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestKernelAllocContiguousPhysical(t *testing.T) {
	as := newAS()
	va, pa := as.AllocKernel(3 * arch.PageSize)
	if va < KernelBase {
		t.Fatalf("kernel VA %v below kernel base", va)
	}
	for i := 0; i < 3; i++ {
		got, ok := as.Translate(va + arch.Addr(i*arch.PageSize))
		if !ok {
			t.Fatalf("kernel page %d unmapped", i)
		}
		if got != pa+arch.Addr(i*arch.PageSize) {
			t.Fatalf("kernel page %d not physically contiguous: %v vs %v", i, got, pa)
		}
	}
	as.FreeKernel(va, 3*arch.PageSize)
	if _, ok := as.Translate(va); ok {
		t.Fatal("kernel pages still mapped after FreeKernel")
	}
}

func TestInvalidateHookOnUnmapAndRemap(t *testing.T) {
	as := newAS()
	var invalidated []arch.Addr
	as.OnInvalidate = func(p arch.Addr) { invalidated = append(invalidated, p) }

	va := as.Alloc(64)
	as.WriteAt(va, []byte{1, 2, 3})

	as.RemapPage(va)
	if len(invalidated) != 1 || invalidated[0] != va.PageBase() {
		t.Fatalf("RemapPage invalidations = %v", invalidated)
	}
	// Contents must survive the migration.
	got := make([]byte, 3)
	as.ReadAt(va, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatal("RemapPage lost page contents")
	}

	as.UnmapPage(va)
	if len(invalidated) != 2 {
		t.Fatalf("UnmapPage did not fire hook: %v", invalidated)
	}
	if _, ok := as.Translate(va); ok {
		t.Fatal("page still mapped after UnmapPage")
	}
}

func TestRemapChangesPhysicalFrame(t *testing.T) {
	as := newAS()
	va := as.Alloc(16)
	before, _ := as.Translate(va)
	as.RemapPage(va)
	after, ok := as.Translate(va)
	if !ok {
		t.Fatal("unmapped after remap")
	}
	if before.Page() == after.Page() {
		t.Fatal("RemapPage kept the same frame")
	}
}

// TestHeapRandomOps cross-checks the allocator + paging against a
// reference model under random alloc/free/write traffic.
func TestHeapRandomOps(t *testing.T) {
	as := newAS()
	rng := rand.New(rand.NewSource(7))
	type blk struct {
		va   arch.Addr
		data []byte
	}
	var live []blk
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Free a random block.
			j := rng.Intn(len(live))
			as.Free(live[j].va, len(live[j].data))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := 1 + rng.Intn(300)
		va := as.Alloc(size)
		data := make([]byte, size)
		rng.Read(data)
		as.WriteAt(va, data)
		live = append(live, blk{va, data})
	}
	for _, b := range live {
		got := make([]byte, len(b.data))
		as.ReadAt(b.va, got)
		if !bytes.Equal(got, b.data) {
			t.Fatalf("block at %v corrupted", b.va)
		}
	}
}

func TestU64VirtualRoundTrip(t *testing.T) {
	as := newAS()
	va := as.Alloc(16)
	as.WriteU64(va, 0x0102030405060708)
	if got := as.ReadU64(va); got != 0x0102030405060708 {
		t.Fatalf("ReadU64 = %#x", got)
	}
}

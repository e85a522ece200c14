package vm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"addrkv/internal/arch"
)

func TestPTEEncoding(t *testing.T) {
	p := MakePTE(0x12345, true)
	if !p.Present() || !p.Writable() {
		t.Fatal("flags lost")
	}
	if p.Frame() != 0x12345 {
		t.Fatalf("Frame = %#x", p.Frame())
	}
	if p.PhysBase() != arch.Addr(0x12345<<arch.PageShift) {
		t.Fatalf("PhysBase = %v", p.PhysBase())
	}
	ro := MakePTE(7, false)
	if ro.Writable() {
		t.Fatal("read-only PTE claims writable")
	}
}

func TestPTEEncodingProperty(t *testing.T) {
	f := func(fn uint64, w bool) bool {
		fn &= (1 << 40) - 1 // frame numbers fit 52-12 bits
		p := MakePTE(fn, w)
		return p.Present() && p.Frame() == fn && p.Writable() == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapWalkUnmap(t *testing.T) {
	pm := NewPhysMem()
	pt := NewPageTable(pm)
	va := arch.Addr(0x7f12_3456_7000)
	fn := pm.AllocFrame()
	pt.Map(va, fn, true)

	leaf, steps := pt.Walk(va, nil)
	if pte := PTE(pm.ReadU64(leaf)); !pte.Present() || pte.Frame() != fn {
		t.Fatalf("walk: pte=%#x", pte)
	}
	if len(steps) != PTLevels {
		t.Fatalf("walk touched %d levels, want %d", len(steps), PTLevels)
	}
	// Steps go from root (level 4) to leaf (level 1).
	for i, st := range steps {
		if st.Level != PTLevels-i {
			t.Fatalf("step %d level %d", i, st.Level)
		}
	}

	pa, ok := pt.Translate(va + 0x123)
	if !ok || pa != arch.Addr(fn<<arch.PageShift)+0x123 {
		t.Fatalf("Translate = %v, %v", pa, ok)
	}

	if got := pt.Unmap(va); got != fn {
		t.Fatalf("Unmap returned %d, want %d", got, fn)
	}
	if _, ok := pt.Translate(va); ok {
		t.Fatal("translate after unmap succeeded")
	}
	if pt.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d", pt.MappedPages())
	}
}

func TestWalkAbsentStopsEarly(t *testing.T) {
	pm := NewPhysMem()
	pt := NewPageTable(pm)
	leaf, steps := pt.Walk(0xdead000, nil)
	if leaf != 0 {
		t.Fatalf("walk of unmapped VA returned leaf PTE address %v", leaf)
	}
	if len(steps) != 1 {
		t.Fatalf("empty table walk touched %d PTEs, want 1 (root miss)", len(steps))
	}
}

func TestMapReplacesLeaf(t *testing.T) {
	pm := NewPhysMem()
	pt := NewPageTable(pm)
	va := arch.Addr(0x4000_0000)
	f1, f2 := pm.AllocFrame(), pm.AllocFrame()
	pt.Map(va, f1, true)
	pt.Map(va, f2, true) // migration
	if pa, _ := pt.Translate(va); pa.Page() != f2 {
		t.Fatalf("after remap frame = %d, want %d", pa.Page(), f2)
	}
	if pt.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", pt.MappedPages())
	}
}

// TestPageTableRandomRoundTrip drives the radix table with many random
// mappings and verifies translation agreement with a reference map.
func TestPageTableRandomRoundTrip(t *testing.T) {
	pm := NewPhysMem()
	pt := NewPageTable(pm)
	rng := rand.New(rand.NewSource(1))
	ref := map[arch.Addr]uint64{}

	for i := 0; i < 3000; i++ {
		va := arch.Addr(rng.Uint64()&((1<<arch.VABits)-1)) &^ arch.Addr(arch.PageMask)
		fn := pm.AllocFrame()
		pt.Map(va, fn, true)
		ref[va] = fn
	}
	for va, fn := range ref {
		pte, ok := pt.Lookup(va)
		if !ok || pte.Frame() != fn {
			t.Fatalf("lookup %v: got frame %d want %d (ok=%v)", va, pte.Frame(), fn, ok)
		}
	}
	// Unmap half; verify the rest survive.
	i := 0
	for va := range ref {
		if i%2 == 0 {
			pt.Unmap(va)
			delete(ref, va)
		}
		i++
	}
	for va, fn := range ref {
		if pte, ok := pt.Lookup(va); !ok || pte.Frame() != fn {
			t.Fatalf("post-unmap lookup %v failed", va)
		}
	}
	if pt.MappedPages() != uint64(len(ref)) {
		t.Fatalf("MappedPages = %d, want %d", pt.MappedPages(), len(ref))
	}
}

// refWalk is the plain four-level descent the remembered paths must
// agree with: every level read from simulated memory, nothing cached.
// leaf is the leaf PTE's address, 0 if a level above it is absent.
func refWalk(pm *PhysMem, root uint64, va arch.Addr) (leaf arch.Addr, pte PTE, steps []WalkStep) {
	tf := root
	for level := PTLevels; ; level-- {
		a := pteAddr(tf, va, level)
		steps = append(steps, WalkStep{PTEAddr: a, Level: level})
		e := PTE(pm.ReadU64(a))
		if level == 1 {
			return a, e, steps
		}
		if !e.Present() {
			return 0, 0, steps
		}
		tf = e.Frame()
	}
}

// TestWalkMatchesPlainDescent drives an address space with a seeded
// random mix of heap growth, reclaim, migration, kernel allocations and
// sparse maps anywhere in the 48-bit space, and after every step holds
// Walk, Lookup and Translate of a spread of addresses (mapped pages,
// unmapped neighbours, absent upper levels, regions that collide in the
// path cache) to the plain descent.
func TestWalkMatchesPlainDescent(t *testing.T) {
	pm := NewPhysMem()
	as := NewAddressSpace(pm)
	pt := as.PT
	rng := rand.New(rand.NewSource(7))
	var heap, sparse []arch.Addr // mapped pages
	type kalloc struct {
		va arch.Addr
		n  int
	}
	var kernel []kalloc
	collide := arch.Addr(pathSlots << regionShift) // same slot, other region
	pick := func(pages []arch.Addr) (arch.Addr, int) {
		i := rng.Intn(len(pages))
		return pages[i], i
	}
	probe := func() arch.Addr {
		switch rng.Intn(6) {
		case 0:
			return arch.Addr(rng.Uint64() & (1<<arch.VABits - 1))
		case 1:
			if len(sparse) > 0 {
				va, _ := pick(sparse)
				return va + arch.Addr(rng.Intn(4)-2)*collide + arch.Addr(rng.Intn(arch.PageSize))
			}
		case 2:
			return as.brk + arch.Addr(rng.Intn(8<<20))
		case 3:
			if len(kernel) > 0 {
				k := kernel[rng.Intn(len(kernel))]
				return k.va + arch.Addr(rng.Intn(k.n+arch.PageSize))
			}
		}
		if len(heap) == 0 {
			return UserHeapBase
		}
		va, _ := pick(heap)
		return va + arch.Addr(rng.Intn(3)-1)*arch.PageSize + arch.Addr(rng.Intn(arch.PageSize))
	}
	outcomes := map[int]int{} // level of the last step read; 0 = translated
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			before := as.mappedEnd
			as.Alloc(1 + rng.Intn(3*arch.PageSize))
			for p := before; p < as.mappedEnd; p += arch.PageSize {
				heap = append(heap, p)
			}
		case op == 3 && len(heap) > 0:
			va, i := pick(heap)
			as.UnmapPage(va)
			heap = append(heap[:i], heap[i+1:]...)
		case op == 4 && len(heap) > 0:
			va, _ := pick(heap)
			as.RemapPage(va)
		case op == 5:
			n := 1 + rng.Intn(3*arch.PageSize)
			va, _ := as.AllocKernel(n)
			kernel = append(kernel, kalloc{va, n})
		case op == 6 && len(kernel) > 0:
			i := rng.Intn(len(kernel))
			as.FreeKernel(kernel[i].va, kernel[i].n)
			kernel = append(kernel[:i], kernel[i+1:]...)
		case op == 7:
			va := arch.Addr(rng.Uint64()&(1<<arch.VABits-1)) &^ arch.PageMask
			if rng.Intn(2) == 0 && len(sparse) > 0 {
				va, _ = pick(sparse)
				va = (va + arch.Addr(rng.Intn(3)-1)*collide) & (1<<arch.VABits - 1)
			}
			// Sparse pages stay far above the kernel allocations, so they
			// never take a page the heap or the kernel will map later.
			if _, ok := pt.Lookup(va); !ok && va >= KernelBase+1<<40 {
				pt.Map(va, pm.AllocFrame(), rng.Intn(2) == 0)
				sparse = append(sparse, va)
			}
		case op == 8 && len(sparse) > 0:
			va, i := pick(sparse)
			pm.FreeFrame(pt.Unmap(va))
			sparse = append(sparse[:i], sparse[i+1:]...)
		}
		for k := 0; k < 8; k++ {
			va := probe()
			wantLeaf, want, wantSteps := refWalk(pm, pt.root, va)
			leaf, steps := pt.Walk(va, nil)
			if leaf != wantLeaf || !slices.Equal(steps, wantSteps) {
				t.Fatalf("step %d: Walk(%v) = %v %v, plain descent %v %v", step, va, leaf, steps, wantLeaf, wantSteps)
			}
			if e, ok := pt.Lookup(va); e != want || ok != want.Present() {
				t.Fatalf("step %d: Lookup(%v) = %#x %v, plain descent %#x", step, va, e, ok, want)
			}
			pa, ok := pt.Translate(va)
			if ok != want.Present() || ok && pa != want.PhysBase()+arch.Addr(va.Offset()) {
				t.Fatalf("step %d: Translate(%v) = %v %v, plain descent %#x", step, va, pa, ok, want)
			}
			if want.Present() {
				outcomes[0]++
			} else {
				outcomes[wantSteps[len(wantSteps)-1].Level]++
			}
		}
	}
	for level := 0; level <= PTLevels; level++ {
		if outcomes[level] == 0 {
			t.Errorf("no probe ended at level %d (0 = translated): %v", level, outcomes)
		}
	}
}

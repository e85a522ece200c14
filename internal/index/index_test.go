package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/cpu"
	"addrkv/internal/hashfn"
)

func newCtx() *Context {
	m := cpu.New(arch.DefaultMachineParams())
	m.Fast = true // functional correctness tests don't need timing
	return &Context{M: m, Hash: hashfn.Murmur64A, Seed: 99}
}

func newTimedCtx() *Context {
	m := cpu.New(arch.DefaultMachineParams())
	return &Context{M: m, Hash: hashfn.Murmur64A, Seed: 99}
}

// ReadRecordKey performs a timed read of the record's key.
func ReadRecordKey(m *cpu.Machine, va arch.Addr, cat arch.CostCategory) []byte {
	kl, _ := ReadRecordHeader(m, va, cat)
	k := make([]byte, kl)
	m.Read(va+RecordHeaderSize, k, arch.KindRecord, cat)
	return k
}

// builders for all four structures.
var builders = []struct {
	name string
	make func(ctx *Context, hint int) Index
}{
	{"chainhash", func(c *Context, h int) Index { return NewChainHash(c, h) }},
	{"densehash", func(c *Context, h int) Index { return NewDenseHash(c, h) }},
	{"rbtree", func(c *Context, h int) Index { return NewRBTree(c) }},
	{"btree", func(c *Context, h int) Index { return NewBTree(c) }},
	{"skiplist", func(c *Context, h int) Index { return NewSkipList(c) }},
}

func key(i int) []byte                        { return []byte(fmt.Sprintf("key-%08d-abcdefghijkl", i)) }
func val(i, ver int) []byte                   { return []byte(fmt.Sprintf("value-%d-%d-0123456789", i, ver)) }
func bigVal(i int) []byte                     { return bytes.Repeat([]byte{byte(i)}, 300) }
func readVal(c *Context, va arch.Addr) []byte { return ReadValueInto(c.M, va, nil) }

func TestPutGetBasic(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ctx := newCtx()
			idx := b.make(ctx, 64)
			if _, ok := idx.Get(key(1)); ok {
				t.Fatal("hit in empty index")
			}
			res := idx.Put(key(1), val(1, 0))
			if !res.Inserted || res.Moved {
				t.Fatalf("first Put: %+v", res)
			}
			va, ok := idx.Get(key(1))
			if !ok || va != res.RecordVA {
				t.Fatalf("Get = %v,%v", va, ok)
			}
			if got := readVal(ctx, va); !bytes.Equal(got, val(1, 0)) {
				t.Fatalf("value = %q", got)
			}
			if idx.Len() != 1 {
				t.Fatalf("Len = %d", idx.Len())
			}
		})
	}
}

func TestUpdateInPlaceAndMove(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ctx := newCtx()
			idx := b.make(ctx, 64)
			r1 := idx.Put(key(1), val(1, 0))

			// Same size class: must update in place.
			r2 := idx.Put(key(1), val(1, 1))
			if r2.Inserted || r2.Moved || r2.RecordVA != r1.RecordVA {
				t.Fatalf("in-place update: %+v", r2)
			}
			va, _ := idx.Get(key(1))
			if got := readVal(ctx, va); !bytes.Equal(got, val(1, 1)) {
				t.Fatalf("updated value = %q", got)
			}

			// Much larger value: must move the record.
			r3 := idx.Put(key(1), bigVal(7))
			if !r3.Moved || r3.OldVA != r1.RecordVA || r3.RecordVA == r1.RecordVA {
				t.Fatalf("move: %+v", r3)
			}
			va, ok := idx.Get(key(1))
			if !ok || va != r3.RecordVA {
				t.Fatal("Get after move")
			}
			if got := readVal(ctx, va); !bytes.Equal(got, bigVal(7)) {
				t.Fatal("moved value corrupted")
			}
			if idx.Len() != 1 {
				t.Fatalf("Len = %d after updates", idx.Len())
			}
		})
	}
}

func TestDeleteBasic(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ctx := newCtx()
			idx := b.make(ctx, 64)
			for i := 0; i < 50; i++ {
				idx.Put(key(i), val(i, 0))
			}
			if idx.Delete(key(99)) {
				t.Fatal("deleted absent key")
			}
			for i := 0; i < 50; i += 2 {
				if !idx.Delete(key(i)) {
					t.Fatalf("delete key %d failed", i)
				}
			}
			if idx.Len() != 25 {
				t.Fatalf("Len = %d", idx.Len())
			}
			for i := 0; i < 50; i++ {
				_, ok := idx.Get(key(i))
				if want := i%2 == 1; ok != want {
					t.Fatalf("key %d present=%v want %v", i, ok, want)
				}
			}
		})
	}
}

// TestRandomOpsAgainstReference drives each structure with a random
// op mix and cross-checks against a Go map after every phase.
func TestRandomOpsAgainstReference(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ctx := newCtx()
			idx := b.make(ctx, 256)
			ref := map[string][]byte{}
			rng := rand.New(rand.NewSource(23))

			const keySpace = 600
			for step := 0; step < 8000; step++ {
				i := rng.Intn(keySpace)
				k := key(i)
				switch rng.Intn(10) {
				case 0, 1: // delete
					want := ref[string(k)] != nil
					got := idx.Delete(k)
					if got != want {
						t.Fatalf("step %d: Delete(%d) = %v want %v", step, i, got, want)
					}
					delete(ref, string(k))
				case 2, 3, 4: // put
					var v []byte
					if rng.Intn(4) == 0 {
						v = bigVal(i)
					} else {
						v = val(i, rng.Intn(100))
					}
					idx.Put(k, v)
					ref[string(k)] = v
				default: // get
					va, ok := idx.Get(k)
					want := ref[string(k)]
					if ok != (want != nil) {
						t.Fatalf("step %d: Get(%d) presence %v want %v", step, i, ok, want != nil)
					}
					if ok {
						if got := readVal(ctx, va); !bytes.Equal(got, want) {
							t.Fatalf("step %d: Get(%d) = %q want %q", step, i, got, want)
						}
					}
				}
			}
			if idx.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", idx.Len(), len(ref))
			}
			// Full final sweep.
			for ks, want := range ref {
				va, ok := idx.Get([]byte(ks))
				if !ok {
					t.Fatalf("final: lost key %q", ks)
				}
				if got := readVal(ctx, va); !bytes.Equal(got, want) {
					t.Fatalf("final: key %q value mismatch", ks)
				}
			}
		})
	}
}

func TestRBTreeInvariantsUnderChurn(t *testing.T) {
	ctx := newCtx()
	tr := NewRBTree(ctx)
	rng := rand.New(rand.NewSource(5))
	live := map[int]bool{}
	for step := 0; step < 3000; step++ {
		i := rng.Intn(400)
		if live[i] && rng.Intn(2) == 0 {
			tr.Delete(key(i))
			delete(live, i)
		} else {
			tr.Put(key(i), val(i, 0))
			live[i] = true
		}
		if step%250 == 0 {
			if _, err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if _, err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d want %d", tr.Len(), len(live))
	}
}

func TestBTreeInvariantsUnderChurn(t *testing.T) {
	ctx := newCtx()
	tr := NewBTree(ctx)
	rng := rand.New(rand.NewSource(6))
	live := map[int]bool{}
	for step := 0; step < 3000; step++ {
		i := rng.Intn(400)
		if live[i] && rng.Intn(2) == 0 {
			if !tr.Delete(key(i)) {
				t.Fatalf("step %d: delete of live key %d failed", step, i)
			}
			delete(live, i)
		} else {
			tr.Put(key(i), val(i, 0))
			live[i] = true
		}
		if step%250 == 0 {
			if n, err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			} else if n != len(live) {
				t.Fatalf("step %d: tree holds %d keys, want %d", step, n, len(live))
			}
		}
	}
	if n, err := tr.CheckInvariants(); err != nil || n != len(live) {
		t.Fatalf("final: n=%d err=%v want %d", n, err, len(live))
	}
}

func TestSkipListInvariantsUnderChurn(t *testing.T) {
	ctx := newCtx()
	sl := NewSkipList(ctx)
	rng := rand.New(rand.NewSource(8))
	live := map[int]bool{}
	for step := 0; step < 3000; step++ {
		i := rng.Intn(400)
		if live[i] && rng.Intn(2) == 0 {
			if !sl.Delete(key(i)) {
				t.Fatalf("step %d: delete of live key %d failed", step, i)
			}
			delete(live, i)
		} else {
			sl.Put(key(i), val(i, 0))
			live[i] = true
		}
		if step%250 == 0 {
			if n, err := sl.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			} else if n != len(live) {
				t.Fatalf("step %d: list holds %d keys, want %d", step, n, len(live))
			}
		}
	}
	if n, err := sl.CheckInvariants(); err != nil || n != len(live) {
		t.Fatalf("final: n=%d err=%v want %d", n, err, len(live))
	}
	if sl.Level() < 2 {
		t.Fatalf("tower never grew: level=%d", sl.Level())
	}
}

func TestSkipListLevelDistribution(t *testing.T) {
	ctx := newCtx()
	sl := NewSkipList(ctx)
	for i := 0; i < 4000; i++ {
		sl.Put(key(i), val(i, 0))
	}
	// With p=1/4 the expected max level for 4000 keys is ~log4(4000)
	// ≈ 6; allow generous bounds.
	if sl.Level() < 3 || sl.Level() > 14 {
		t.Fatalf("level = %d, implausible for p=1/4 geometric towers", sl.Level())
	}
}

func TestBTreeSplitsAndHeight(t *testing.T) {
	ctx := newCtx()
	tr := NewBTree(ctx)
	for i := 0; i < 2000; i++ {
		tr.Put(key(i), val(i, 0))
	}
	if tr.Splits == 0 {
		t.Fatal("no splits after 2000 inserts")
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tr.Height())
	}
	// Drain completely; merges must occur and the root must shrink.
	for i := 0; i < 2000; i++ {
		if !tr.Delete(key(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after drain", tr.Len())
	}
	if tr.Merges == 0 {
		t.Fatal("no merges during drain")
	}
	if tr.Height() != 1 {
		t.Fatalf("drained height = %d", tr.Height())
	}
}

func TestChainHashGrowth(t *testing.T) {
	ctx := newCtx()
	h := NewChainHash(ctx, 16)
	for i := 0; i < 500; i++ {
		h.Put(key(i), val(i, 0))
	}
	if h.Grows == 0 {
		t.Fatal("table never grew")
	}
	for i := 0; i < 500; i++ {
		if _, ok := h.Get(key(i)); !ok {
			t.Fatalf("key %d lost across growth", i)
		}
	}
}

func TestDenseHashGrowthAndTombstoneReuse(t *testing.T) {
	ctx := newCtx()
	d := NewDenseHash(ctx, 32)
	for i := 0; i < 400; i++ {
		d.Put(key(i), val(i, 0))
	}
	if d.Grows == 0 {
		t.Fatal("dense table never grew")
	}
	for i := 0; i < 200; i++ {
		d.Delete(key(i))
	}
	// Reinsert over tombstones.
	for i := 0; i < 200; i++ {
		d.Put(key(i), val(i, 1))
	}
	for i := 0; i < 400; i++ {
		va, ok := d.Get(key(i))
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		want := val(i, 0)
		if i < 200 {
			want = val(i, 1)
		}
		if got := readVal(ctx, va); !bytes.Equal(got, want) {
			t.Fatalf("key %d value %q", i, got)
		}
	}
}

func TestDenseHashOccupancyBound(t *testing.T) {
	ctx := newCtx()
	d := NewDenseHash(ctx, 64)
	for i := 0; i < 5000; i++ {
		d.Put(key(i), val(i, 0))
	}
	if float64(d.Len()) > 0.5*float64(d.Cap()) {
		t.Fatalf("occupancy %d/%d exceeds dense_hash_map bound", d.Len(), d.Cap())
	}
}

func TestTraversalChargesTimed(t *testing.T) {
	// With timing on, a Get must charge hash + traversal cycles.
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ctx := newTimedCtx()
			idx := b.make(ctx, 64)
			for i := 0; i < 100; i++ {
				idx.Put(key(i), val(i, 0))
			}
			before := ctx.M.Stats()
			idx.Get(key(50))
			d := ctx.M.Stats().Sub(before)
			if d.Cycles == 0 {
				t.Fatal("timed Get charged nothing")
			}
			if d.ByCat[arch.CatTraverse] == 0 {
				t.Fatal("no traversal cycles")
			}
			ordered := b.name == "rbtree" || b.name == "btree" || b.name == "skiplist"
			if !ordered && d.ByCat[arch.CatHash] == 0 {
				t.Fatal("hash-table Get charged no hash cycles")
			}
		})
	}
}

func TestRecordHelpers(t *testing.T) {
	m := cpu.New(arch.DefaultMachineParams())
	m.Fast = true
	va := AllocRecord(m, []byte("thekey"), []byte("thevalue"))
	kl, vl := ReadRecordHeader(m, va, arch.CatData)
	if kl != 6 || vl != 8 {
		t.Fatalf("header = %d,%d", kl, vl)
	}
	if !KeyMatches(m, va, []byte("thekey"), arch.CatData) {
		t.Fatal("KeyMatches rejected the key")
	}
	if KeyMatches(m, va, []byte("thekex"), arch.CatData) {
		t.Fatal("KeyMatches accepted a wrong key")
	}
	if KeyMatches(m, va, []byte("longerkey"), arch.CatData) {
		t.Fatal("KeyMatches accepted a wrong-length key")
	}
	if got := ReadRecordKey(m, va, arch.CatData); string(got) != "thekey" {
		t.Fatalf("ReadRecordKey = %q", got)
	}
	if got := ReadValueInto(m, va, nil); string(got) != "thevalue" {
		t.Fatalf("ReadValue = %q", got)
	}
	if KeyCompare(m, va, []byte("thekey"), arch.CatData) != 0 {
		t.Fatal("KeyCompare(equal) != 0")
	}
	if KeyCompare(m, va, []byte("aaa"), arch.CatData) >= 0 {
		t.Fatal("KeyCompare ordering wrong")
	}
	UpdateValueInPlace(m, va, 6, []byte("newvals!"))
	if got := ReadValueInto(m, va, nil); string(got) != "newvals!" {
		t.Fatalf("after update: %q", got)
	}
}

func TestAllocClassMatchesVMSizeClass(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 100, 128, 300, 4096, 5000} {
		want := sizeClassRef(n)
		if got := allocClass(n); got != want {
			t.Errorf("allocClass(%d) = %d, want %d", n, got, want)
		}
	}
}

// sizeClassRef mirrors vm.sizeClass for the cross-check.
func sizeClassRef(n int) int {
	if n > arch.PageSize {
		return (n + arch.PageSize - 1) &^ arch.PageMask
	}
	c := 16
	for c < n {
		c <<= 1
	}
	return c
}

package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/setassoc"
)

// wayState is one valid way of a set as either layout holds it.
type wayState struct {
	way       int
	line, lru uint64
	pf, dirty bool
}

// resident lists what set s of the new layout holds, in way order; the
// reference's method of the same name does the same for its ways, so
// the two compare whole.
func (c *Cache) resident(s int) (out []wayState) {
	set := c.data[s*2*c.ways : (s+1)*2*c.ways]
	for i := 0; i < c.ways; i++ {
		if t := set[i]; t != 0 {
			out = append(out, wayState{i, t&setassoc.TagMask - 1, set[c.ways+i], t&setassoc.FlagPrefetched != 0, t&setassoc.FlagDirty != 0})
		}
	}
	return out
}

func (c *refCache) resident(s int) (out []wayState) {
	for i, w := range c.data[s*c.ways : (s+1)*c.ways] {
		if w.valid {
			out = append(out, wayState{i, w.tag, w.lru, w.prefetched, w.dirty})
		}
	}
	return out
}

// sameSet reports a set's contents in both layouts and whether they
// are equal.
func sameSet(n *Cache, r *refCache, s int) (got, want []wayState, ok bool) {
	got, want = n.resident(s), r.resident(s)
	return got, want, slices.Equal(got, want)
}

// lockstep drives a Cache and the reference with the same calls and
// fails on the first difference in a return value, a counter, or the
// contents of the set the call touched.
type lockstep struct {
	t    *testing.T
	new  *Cache
	ref  *refCache
	step int
}

func newLockstep(t *testing.T, sets, ways int) *lockstep {
	return &lockstep{t: t, new: NewCacheSets("new", sets, ways), ref: newRefCacheSets("ref", sets, ways)}
}

func (l *lockstep) same(op string, line uint64, got, want any) {
	l.t.Helper()
	if got != want {
		l.t.Fatalf("step %d %s(%d): new returned %v, reference %v", l.step, op, line, got, want)
	}
	if l.new.Hits != l.ref.Hits || l.new.Misses != l.ref.Misses ||
		l.new.Evictions != l.ref.Evictions || l.new.PrefetchHits != l.ref.PrefetchHits || l.new.tick != l.ref.tick {
		l.t.Fatalf("step %d %s(%d): counters new %d/%d/%d/%d tick %d, reference %d/%d/%d/%d tick %d", l.step, op, line,
			l.new.Hits, l.new.Misses, l.new.Evictions, l.new.PrefetchHits, l.new.tick,
			l.ref.Hits, l.ref.Misses, l.ref.Evictions, l.ref.PrefetchHits, l.ref.tick)
	}
	s := int(line) & (l.ref.sets - 1)
	if g, w, ok := sameSet(l.new, l.ref, s); !ok {
		l.t.Fatalf("step %d %s(%d): set %d holds\n new %+v\n ref %+v", l.step, op, line, s, g, w)
	}
	l.step++
}

func (l *lockstep) access(line uint64) bool {
	l.t.Helper()
	hit := l.new.Access(line)
	l.same("Access", line, hit, l.ref.Access(line))
	return hit
}

func (l *lockstep) fill(line uint64, prefetched bool) {
	l.t.Helper()
	l.same(fmt.Sprintf("Fill[pf=%v]", prefetched), line, l.new.Fill(line, prefetched), l.ref.Fill(line, prefetched))
}

func (l *lockstep) invalidate(line uint64) {
	l.t.Helper()
	l.same("Invalidate", line, l.new.Invalidate(line), l.ref.Invalidate(line))
}

// TestCacheMatchesReference is the randomized differential: per
// geometry, 200 k calls drawn from a line pool small enough that sets
// fill, collide, evict, get invalidated and refilled. Access is usually
// followed by the Fill of the same line (the hierarchy's pattern, which
// the remembered victim serves), but often enough by something else
// that every way of discarding the remembered victim is walked too.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{1, 1}, {1, 2}, {4, 1}, {64, 8}, {4096, 8}, {16, 4}, {2, 16}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			l := newLockstep(t, g.sets, g.ways)
			rng := rand.New(rand.NewSource(int64(g.sets*131 + g.ways)))
			// About three lines per way; bit 40 set on some so tags are
			// not all small numbers.
			pool := make([]uint64, 3*g.sets*g.ways+2)
			for i := range pool {
				pool[i] = uint64(rng.Intn(4*g.sets*g.ways + 4))
				if rng.Intn(4) == 0 {
					pool[i] |= 1 << 40
				}
			}
			pick := func() uint64 { return pool[rng.Intn(len(pool))] }
			var missed uint64
			haveMiss := false
			for l.step < 200_000 {
				line := pick()
				switch op := rng.Intn(100); {
				case op < 40:
					if !l.access(line) {
						missed, haveMiss = line, true
					}
				case op < 62:
					// The fill of the last miss, if there is one.
					if haveMiss {
						line = missed
					}
					l.fill(line, false)
					haveMiss = false
				case op < 70:
					l.fill(line, false)
				case op < 80:
					l.fill(line, true)
				case op < 84:
					l.same("Lookup", line, l.new.Lookup(line), l.ref.Lookup(line))
				case op < 89:
					l.same("MarkDirty", line, l.new.MarkDirty(line), l.ref.MarkDirty(line))
				case op < 92:
					l.same("IsDirty", line, l.new.IsDirty(line), l.ref.IsDirty(line))
				case op < 97:
					l.invalidate(line)
				case op < 99:
					l.new.ResetStats()
					l.ref.ResetStats()
					l.same("ResetStats", line, nil, nil)
				default:
					if rng.Intn(20) == 0 { // rarely: it empties the cache
						l.new.Reset()
						l.ref.Reset()
						l.same("Reset", line, nil, nil)
						haveMiss = false
					}
				}
			}
			// The sets the last calls touched were compared as they went;
			// compare all of them once at the end.
			for s := 0; s < g.sets; s++ {
				if g, w, ok := sameSet(l.new, l.ref, s); !ok {
					t.Fatalf("after the run, set %d holds\n new %+v\n ref %+v", s, g, w)
				}
			}
		})
	}
}

// TestCacheDuplicateFillQuirk names the one oddity the way-order scan
// creates: invalidate a low way, then fill a line still resident in a
// higher way, and the scan meets the invalid way before the line, so
// the line is installed a second time. Unreachable in production
// (Invalidate has no non-test caller), but removing it would be a model
// change, and this PR makes none.
func TestCacheDuplicateFillQuirk(t *testing.T) {
	l := newLockstep(t, 1, 4)
	for line := uint64(10); line < 14; line++ {
		l.fill(line, false) // ways 0..3
	}
	l.invalidate(10) // way 0 is free, 13 sits in way 3
	l.fill(13, false)
	want := []wayState{{0, 13, 5, false, false}, {1, 11, 2, false, false}, {2, 12, 3, false, false}, {3, 13, 4, false, false}}
	if got := l.new.resident(0); !slices.Equal(got, want) {
		t.Fatalf("set holds %+v, want the duplicate: %+v", got, want)
	}
	// Both copies answer to the line; the lower way is the one a hit,
	// MarkDirty and Invalidate reach.
	l.access(13)
	l.same("MarkDirty", 13, l.new.MarkDirty(13), l.ref.MarkDirty(13))
	l.invalidate(13)
	if !l.new.Lookup(13) {
		t.Fatal("the second copy of line 13 went with the first")
	}
	// A miss remembers its victim; an Invalidate before the fill must
	// make the fill scan again (way 0 is free now, the remembered way
	// was the LRU one).
	l.invalidate(13)
	l.fill(10, false)
	l.fill(13, false) // set full again: 10, 11, 12, 13
	if l.access(20) {
		t.Fatal("line 20 hit")
	}
	l.invalidate(12)
	l.fill(20, false)
	if got := l.new.resident(0)[2]; got.way != 2 || got.line != 20 {
		t.Fatalf("fill after Invalidate made way 2 %+v, want line 20 there", got)
	}
}

// fillBetween is a prefetcher that, on every L3 miss, asks for lines of
// the same L3 set as the missing line — so the hierarchy fills that set
// between the L3 miss and fill3 and the victim L3.Access remembered is
// stale by the time fill3 runs.
type fillBetween struct{ sets uint64 }

func (fillBetween) Name() string { return "fill-between" }
func (fillBetween) Reset()       {}
func (p fillBetween) Observe(line uint64, miss bool) []uint64 {
	if !miss {
		return nil
	}
	return []uint64{line + p.sets, line + 2*p.sets}
}

// refHierarchy is Hierarchy.Access over three reference caches: the
// same calls in the same order, written out once more so that the new
// hierarchy is compared with the old cache code and not with itself.
type refHierarchy struct {
	l1, l2, l3 *refCache
	mem        *DRAM
	pf         Prefetcher
	issued     uint64
}

func (h *refHierarchy) fill3(line uint64) {
	if h.l3.Fill(line, false) {
		h.mem.Writeback()
	}
}

func (h *refHierarchy) access(line uint64, write bool) {
	switch {
	case h.l1.Access(line):
	case h.l2.Access(line):
		h.fill3(line)
		h.l1.Fill(line, false)
	default:
		hit3 := h.l3.Access(line)
		for _, pl := range h.pf.Observe(line, !hit3) {
			if !h.l3.Lookup(pl) {
				h.mem.Prefetch()
				h.issued++
				h.l3.Fill(pl, true)
			}
		}
		if !hit3 {
			h.mem.Demand()
			h.fill3(line)
		}
		h.l2.Fill(line, false)
		h.l1.Fill(line, false)
	}
	if write {
		h.l3.MarkDirty(line)
	}
}

// TestHierarchyDiscardsStaleVictim runs the real Hierarchy against
// refHierarchy under fillBetween. Every L3 miss has two prefetch fills
// of its own set between L3.Access and fill3; if fill3 used the victim
// the miss remembered, the L3's contents and eviction count would part
// from the reference's within a few hundred accesses (checked by hand
// when this was written: with the tick test dropped from Fill it fails
// on the first access).
func TestHierarchyDiscardsStaleVictim(t *testing.T) {
	p := arch.DefaultMachineParams()
	p.L1Size, p.L2Size, p.L3Size = 8*64*8, 16*64*8, 32*64*8 // 8, 16, 32 sets of 8 ways
	h := NewHierarchy(p)
	pf := fillBetween{sets: uint64(h.L3.sets)}
	h.Prefetcher = pf
	ref := &refHierarchy{
		l1: newRefCache("L1D", p.L1Size, p.L1Ways), l2: newRefCache("L2", p.L2Size, p.L2Ways),
		l3: newRefCache("L3", p.L3Size, p.L3Ways), mem: NewDRAM(p), pf: pf,
	}
	rng := rand.New(rand.NewSource(7))
	stale := 0
	for i := 0; i < 200_000; i++ {
		line := uint64(rng.Intn(2000))
		write := rng.Intn(8) == 0
		before := h.L3.tick
		h.Access(arch.Addr(line<<arch.LineShift), write, arch.KindRecord)
		ref.access(line, write)
		if h.L3.missLine == line && h.L3.tick > before+2 {
			stale++ // L3 missed on line, and more than its Access and Fill ticked
		}
		for lv, pair := range []struct {
			n *Cache
			r *refCache
		}{{h.L1, ref.l1}, {h.L2, ref.l2}, {h.L3, ref.l3}} {
			n, r := pair.n, pair.r
			if n.Hits != r.Hits || n.Misses != r.Misses || n.Evictions != r.Evictions || n.PrefetchHits != r.PrefetchHits {
				t.Fatalf("access %d (line %d): L%d counters new %d/%d/%d/%d, reference %d/%d/%d/%d", i, line, lv+1,
					n.Hits, n.Misses, n.Evictions, n.PrefetchHits, r.Hits, r.Misses, r.Evictions, r.PrefetchHits)
			}
			s := int(line) & (n.sets - 1)
			if g, w, ok := sameSet(n, r, s); !ok {
				t.Fatalf("access %d (line %d): L%d set %d holds\n new %+v\n ref %+v", i, line, lv+1, s, g, w)
			}
		}
		if h.PrefetchIssued != ref.issued || h.Mem.Accesses != ref.mem.Accesses || h.Mem.Writebacks != ref.mem.Writebacks {
			t.Fatalf("access %d: prefetches/DRAM accesses/write-backs new %d/%d/%d, reference %d/%d/%d", i,
				h.PrefetchIssued, h.Mem.Accesses, h.Mem.Writebacks, ref.issued, ref.mem.Accesses, ref.mem.Writebacks)
		}
	}
	if stale < 1000 {
		t.Fatalf("only %d L3 misses had a fill between miss and fill3; the case is not exercised", stale)
	}
}

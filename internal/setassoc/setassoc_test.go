package setassoc

import (
	"math/rand"
	"testing"
)

// answers is what the three scans say of one set and one key.
type answers struct {
	find, victim, place int
	present             bool
}

func scan8(tags, lrus *[8]uint64, want uint64) answers {
	place, present := Place8(tags, lrus, want)
	return answers{Find8(tags, want), Victim(tags, lrus), place, present}
}

func scan4(tags, lrus *[4]uint64, want uint64) answers {
	place, present := Place4(tags, lrus, want)
	return answers{Find4(tags, want), Victim(tags, lrus), place, present}
}

// scanLoop is the three scans as plain loops over a set of any width,
// Place the way-order scan that stops at the key or at the first
// invalid way: what the unrolled forms must answer.
func scanLoop(tags, lrus []uint64, want uint64) answers {
	a := answers{find: -1, victim: -1, place: -1}
	for i, t := range tags {
		if a.find < 0 && t&TagMask == want {
			a.find = i
		}
		if a.victim < 0 && t == 0 {
			a.victim = i
		}
		if a.place < 0 && (t&TagMask == want || t == 0) {
			a.place, a.present = i, t != 0
		}
	}
	least := 0
	for i, l := range lrus {
		if l < lrus[least] {
			least = i
		}
	}
	if a.victim < 0 {
		a.victim = least
	}
	if a.place < 0 {
		a.place = least
	}
	return a
}

// The lock-step differentials in internal/cache and internal/tlb are
// what hold these scans to the old way-struct code; this names the
// tie-breaks they rest on, one case each. Every case runs at width 4 as
// written and at width 8 with four more ways appended that are valid,
// hold other keys and were used last, so the answers are the same.
func TestScans(t *testing.T) {
	const k = 7 // key 7 is tag 8
	for _, tc := range []struct {
		name       string
		tags, lrus [4]uint64
		want       answers // for tag k+1
	}{
		{"absent, full: first of the least LRU", [4]uint64{3, 4, 5, 6}, [4]uint64{9, 2, 2, 5}, answers{-1, 1, 1, false}},
		{"absent: first invalid way beats any LRU", [4]uint64{3, 0, 5, 0}, [4]uint64{1, 8, 0, 9}, answers{-1, 1, 1, false}},
		{"flags are not part of the tag", [4]uint64{3, 8 | FlagPrefetched | FlagDirty, 5, 6}, [4]uint64{4, 3, 2, 1}, answers{1, 3, 1, true}},
		{"duplicate: the lowest way answers", [4]uint64{3, 8, 5, 8}, [4]uint64{4, 3, 2, 1}, answers{1, 3, 1, true}},
		{"invalid way below the key: Place stops there", [4]uint64{0, 4, 8, 6}, [4]uint64{4, 3, 2, 1}, answers{2, 0, 0, false}},
		{"invalid way above the key: Place finds the key", [4]uint64{3, 8, 0, 6}, [4]uint64{4, 3, 2, 1}, answers{1, 2, 1, true}},
		{"key in the last way", [4]uint64{3, 4, 5, 8}, [4]uint64{1, 3, 2, 4}, answers{3, 0, 3, true}},
	} {
		tags8, lrus8 := [8]uint64{4: 100, 5: 101, 6: 102, 7: 103}, [8]uint64{4: 99, 5: 99, 6: 99, 7: 99}
		copy(tags8[:], tc.tags[:])
		copy(lrus8[:], tc.lrus[:])
		if got := scan4(&tc.tags, &tc.lrus, k+1); got != tc.want {
			t.Errorf("%s: 4 ways answer %+v, want %+v", tc.name, got, tc.want)
		}
		if got := scan8(&tags8, &lrus8, k+1); got != tc.want {
			t.Errorf("%s: 8 ways answer %+v, want %+v", tc.name, got, tc.want)
		}
		if got := scanLoop(tc.tags[:], tc.lrus[:], k+1); got != tc.want {
			t.Errorf("%s: the loops answer %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// randomSet fills tags and lrus the way the differentials cannot steer
// them to: keys from a pool of five, so duplicates are common; a
// quarter of the ways invalid; flag bits on a third of the valid ones;
// LRU words from a range of eight, so ties are common. It returns a key
// from the same pool, as a tag.
func randomSet(rng *rand.Rand, tags, lrus []uint64) (want uint64) {
	for i := range tags {
		tags[i] = 0
		if rng.Intn(4) != 0 {
			tags[i] = uint64(rng.Intn(5)) + 1<<40 + 1
			if rng.Intn(3) == 0 {
				tags[i] |= []uint64{FlagPrefetched, FlagDirty, FlagPrefetched | FlagDirty}[rng.Intn(3)]
			}
		}
		lrus[i] = uint64(rng.Intn(8))
	}
	return uint64(rng.Intn(5)) + 1<<40 + 1
}

// TestScansMatchLoops holds Find, Victim and Place at both widths to
// the plain loops over 20 000 seeded random sets each.
func TestScansMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var tags8, lrus8 [8]uint64
	var tags4, lrus4 [4]uint64
	for n := 0; n < 20_000; n++ {
		want := randomSet(rng, tags8[:], lrus8[:])
		if got, w := scan8(&tags8, &lrus8, want), scanLoop(tags8[:], lrus8[:], want); got != w {
			t.Fatalf("set %d: tags %#x, LRU %v, key tag %#x: 8 ways answer %+v, the loops %+v", n, tags8, lrus8, want, got, w)
		}
		want = randomSet(rng, tags4[:], lrus4[:])
		if got, w := scan4(&tags4, &lrus4, want), scanLoop(tags4[:], lrus4[:], want); got != w {
			t.Fatalf("set %d: tags %#x, LRU %v, key tag %#x: 4 ways answer %+v, the loops %+v", n, tags4, lrus4, want, got, w)
		}
	}
}

// BenchmarkSetScans prices the three scans a simulated access makes, on
// sets shaped like a warm cache's or TLB's: every way valid, distinct
// keys near 2^30, distinct LRU ticks. hit finds a key in a way drawn at
// random per set; miss+victim is a missing Access (Find, then Victim);
// fill is a Place of a missing key.
func BenchmarkSetScans(b *testing.B) {
	const n = 1024 // sets, walked in order
	rng := rand.New(rand.NewSource(1))
	tags8, lrus8 := make([][8]uint64, n), make([][8]uint64, n)
	tags4, lrus4 := make([][4]uint64, n), make([][4]uint64, n)
	hit8, hit4 := make([]uint64, n), make([]uint64, n)
	for s := 0; s < n; s++ {
		for i, p := range rng.Perm(8) {
			tags8[s][i], lrus8[s][i] = 1<<30+uint64(s*8+i)+1, uint64(1000*s+p)
		}
		for i, p := range rng.Perm(4) {
			tags4[s][i], lrus4[s][i] = 1<<30+uint64(s*4+i)+1, uint64(1000*s+p)
		}
		hit8[s], hit4[s] = tags8[s][rng.Intn(8)], tags4[s][rng.Intn(4)]
	}
	const absent = 1
	sink := 0
	for _, bc := range []struct {
		name string
		scan func(s int) int
	}{
		{"8/hit", func(s int) int { return Find8(&tags8[s], hit8[s]) }},
		{"8/miss+victim", func(s int) int { return Find8(&tags8[s], absent) + Victim(&tags8[s], &lrus8[s]) }},
		{"8/fill", func(s int) int { w, _ := Place8(&tags8[s], &lrus8[s], absent); return w }},
		{"4/hit", func(s int) int { return Find4(&tags4[s], hit4[s]) }},
		{"4/miss+victim", func(s int) int { return Find4(&tags4[s], absent) + Victim(&tags4[s], &lrus4[s]) }},
		{"4/fill", func(s int) int { w, _ := Place4(&tags4[s], &lrus4[s], absent); return w }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += bc.scan(i & (n - 1))
			}
		})
	}
	if sink == -1 {
		b.Log(sink)
	}
}

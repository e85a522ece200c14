// Package setassoc holds what the simulated caches (internal/cache) and
// TLBs (internal/tlb) share: how one way of a set is laid out in host
// memory, and the scans of a set that every simulated access pays for.
// DESIGN.md §5 gives the reasons. Every cache is 8-way and every TLB
// 4-way (arch.CacheWays, arch.TLBWays), so each scan has those widths.
//
// A set of n ways is n tag words followed by n LRU words (the TLB adds n
// payload words). A tag word is key+1 — 0 marks an invalid way — under
// two flag bits; keys (physical line numbers, virtual page numbers) are
// below 2^58. An LRU word is the owner's tick at the way's last use;
// an invalid way keeps the word its last occupant left.
package setassoc

const (
	FlagPrefetched = 1 << 63 // installed by a prefetcher, not yet used
	FlagDirty      = 1 << 62 // caches only: modified since fill
	TagMask        = FlagDirty - 1

	// NoKey is not the key of any way: what "no victim remembered" is
	// spelled as.
	NoKey = ^uint64(0)
)

// Find8 returns the lowest way whose tag is want (key+1, no flags), or
// -1: eight independent compares feeding conditional moves, and no
// branch on which way hits. Out of line on purpose: inlined into
// Cache.Access (go1.24), the moves become compare-and-branch chains.
//
//go:noinline
func Find8(tags *[8]uint64, want uint64) int {
	at := pick(tags[7]&TagMask == want, 7, -1)
	at = pick(tags[6]&TagMask == want, 6, at)
	at = pick(tags[5]&TagMask == want, 5, at)
	at = pick(tags[4]&TagMask == want, 4, at)
	at = pick(tags[3]&TagMask == want, 3, at)
	at = pick(tags[2]&TagMask == want, 2, at)
	at = pick(tags[1]&TagMask == want, 1, at)
	return pick(tags[0]&TagMask == want, 0, at)
}

// Find4 is Find8 for a 4-way set.
//
//go:noinline
func Find4(tags *[4]uint64, want uint64) int {
	at := pick(tags[3]&TagMask == want, 3, -1)
	at = pick(tags[2]&TagMask == want, 2, at)
	at = pick(tags[1]&TagMask == want, 1, at)
	return pick(tags[0]&TagMask == want, 0, at)
}

// pick is c ? a : b, a diamond the compiler turns into a conditional move.
func pick(c bool, a, b int) int {
	if c {
		return a
	}
	return b
}

// Victim picks the way a fill replaces in a set of either width that
// does not hold the key: the first invalid way, else the first way of
// least LRU, in one pass without a data-dependent branch.
func Victim[S [8]uint64 | [4]uint64](tags, lrus *S) int {
	inv, min, least := -1, 0, ^uint64(0)
	for i := len(*tags) - 1; i >= 0; i-- {
		inv = pick((*tags)[i] == 0, i, inv)
		if l := (*lrus)[i]; l <= least {
			min, least = i, l
		}
	}
	return pick(inv >= 0, inv, min)
}

// Place8 is the way a fill of want goes to when it has no victim
// remembered: the key's own lowest way if no invalid way lies below it,
// else the victim. That is a way-order scan that stops at the key or at
// the first invalid way, so a key resident above an invalidated way is
// installed a second time (DESIGN.md §5, "duplicate fill"). After a hit,
// Find8 of tag 0 finds the lowest invalid way (as a uint, -1 lies above
// every way), so a resident key never reads the LRU words.
func Place8(tags, lrus *[8]uint64, want uint64) (way int, present bool) {
	if f := Find8(tags, want); f >= 0 && uint(f) < uint(Find8(tags, 0)) {
		return f, true
	}
	return Victim(tags, lrus), false
}

// Place4 is Place8 for a 4-way set.
func Place4(tags, lrus *[4]uint64, want uint64) (way int, present bool) {
	if f := Find4(tags, want); f >= 0 && uint(f) < uint(Find4(tags, 0)) {
		return f, true
	}
	return Victim(tags, lrus), false
}

// Package setassoc holds what the simulated caches (internal/cache) and
// TLBs (internal/tlb) share: how one way of a set is laid out in host
// memory, and the two scans of a set that every simulated access pays
// for. DESIGN.md §5 gives the reasons.
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

// Find returns the lowest way whose tag is want (key+1, no flags), or
// -1. It looks at every way and leaves by no early return: which way
// hits is not predictable, the trip count is.
//
// Not inlined on purpose: on its own the loop body compiles to a
// conditional move, inlined into Cache.Access (go1.24) to a compare and
// branch that mispredicts on most hits.
//
//go:noinline
func Find(tags []uint64, want uint64) int {
	at := -1
	for i := len(tags) - 1; i >= 0; i-- {
		if tags[i]&TagMask == want {
			at = i
		}
	}
	return at
}

// Victim picks the way a fill replaces in a set that does not hold the
// key: the first invalid way, else the first way of least LRU. Like
// Find it is one pass without a data-dependent branch.
func Victim(tags, lrus []uint64) int {
	lrus = lrus[:len(tags)]
	inv, min, least := -1, 0, ^uint64(0)
	for i := len(tags) - 1; i >= 0; i-- {
		if tags[i] == 0 {
			inv = i
		}
		if l := lrus[i]; l <= least {
			min, least = i, l
		}
	}
	if inv >= 0 {
		min = inv
	}
	return min
}

// Place is the scan a fill makes when it has no victim remembered: in
// way order, to the key's own way (present) or to the first invalid
// way, else to the first way of least LRU. An invalid way met before
// the key's own ends the scan, so a key resident above an invalidated
// way is installed a second time (DESIGN.md §5, "duplicate fill").
func Place(tags, lrus []uint64, want uint64) (way int, present bool) {
	lrus = lrus[:len(tags)]
	for i, t := range tags {
		if t&TagMask == want {
			return i, true
		}
		if t == 0 {
			return i, false
		}
		if lrus[i] < lrus[way] {
			way = i
		}
	}
	return way, false
}

// Package cache implements the simulated data-cache hierarchy of
// Table III: three levels of set-associative, LRU, 64-byte-line,
// physically-addressed caches in front of a DRAM model with a simple
// bandwidth-contention queue. It also implements the hardware
// prefetchers evaluated in Section IV-F (a stride/"Simple" prefetcher
// and VLDP).
package cache

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/setassoc"
)

// Cache is one level of set-associative cache, indexed by physical
// line address.
type Cache struct {
	sets int
	ways int
	tick uint64
	// data holds, set after set, the set's ways tag words and then its
	// ways LRU words: an 8-way set is 128 contiguous bytes, so a hit
	// reads one host cache line and writes one word of the next.
	data []uint64

	// A missing Access has scanned the set, so it also picks the way the
	// Fill of that line will replace. Fill uses it only if nothing else
	// touched this cache since: every Access and Fill advances tick, and
	// Invalidate and Reset forget it.
	missLine, missTick uint64
	missWay            int

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// PrefetchHits counts demand hits on lines brought in by a
	// prefetcher (first touch only) — prefetch "useful" count.
	PrefetchHits uint64
}

// NewCache builds a cache of the given total size in bytes and
// associativity. Size must be a multiple of ways*LineSize and yield a
// power-of-two set count.
func NewCache(name string, size, ways int) *Cache {
	lines := size / arch.LineSize
	sets := lines / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a positive power of two", name, sets))
	}
	return &Cache{sets: sets, ways: ways, data: make([]uint64, 2*sets*ways), missLine: setassoc.NoKey}
}

// set returns the tag words and the LRU words of line's set.
func (c *Cache) set(line uint64) (tags, lrus []uint64) {
	s := (int(line) & (c.sets - 1)) * 2 * c.ways
	set := c.data[s : s+2*c.ways]
	return set[:c.ways], set[c.ways:]
}

// Lookup probes for the line without changing replacement state.
func (c *Cache) Lookup(line uint64) bool {
	tags, _ := c.set(line)
	return setassoc.Find(tags, line+1) >= 0
}

// Access performs a demand access for line, updating LRU and
// statistics. It returns true on hit. It does not fill on miss; the
// hierarchy does that after resolving the lower level.
func (c *Cache) Access(line uint64) bool {
	c.tick++
	tags, lrus := c.set(line)
	i := setassoc.Find(tags, line+1)
	if i < 0 {
		c.Misses++
		c.missLine, c.missTick, c.missWay = line, c.tick, setassoc.Victim(tags, lrus)
		return false
	}
	lrus[i] = c.tick
	if tags[i]&setassoc.FlagPrefetched != 0 {
		tags[i] &^= setassoc.FlagPrefetched
		c.PrefetchHits++
	}
	c.Hits++
	return true
}

// Fill inserts line, evicting the LRU way if needed. prefetched marks
// the line as prefetcher-installed for accuracy accounting. It reports
// whether a dirty line was evicted (the caller owes a write-back).
func (c *Cache) Fill(line uint64, prefetched bool) (evictedDirty bool) {
	c.tick++
	tags, lrus := c.set(line)
	v := c.missWay
	if c.missLine != line || c.missTick+1 != c.tick {
		// Not the fill of the last miss: scan.
		var present bool
		if v, present = setassoc.Place(tags, lrus, line+1); present {
			// Already there (e.g. racing prefetch): refresh.
			lrus[v] = c.tick
			return false
		}
	}
	if tags[v] != 0 {
		c.Evictions++
		evictedDirty = tags[v]&setassoc.FlagDirty != 0
	}
	tags[v] = line + 1
	if prefetched {
		// Prefetched lines are inserted at low replacement priority
		// (they inherit the victim's LRU age rather than MRU), so a
		// speculative line only survives until the set's next fill
		// unless a demand access promotes it — standard low-priority
		// prefetch insertion, and what keeps an inaccurate prefetcher
		// from monopolizing the cache. An invalid way's LRU word is
		// whatever its last occupant left.
		tags[v] |= setassoc.FlagPrefetched
	} else {
		lrus[v] = c.tick
	}
	return evictedDirty
}

// MarkDirty flags the line as modified if present.
func (c *Cache) MarkDirty(line uint64) bool {
	tags, _ := c.set(line)
	i := setassoc.Find(tags, line+1)
	if i >= 0 {
		tags[i] |= setassoc.FlagDirty
	}
	return i >= 0
}

// Invalidate drops the line if present, returning whether it was.
func (c *Cache) Invalidate(line uint64) bool {
	tags, _ := c.set(line)
	i := setassoc.Find(tags, line+1)
	if i >= 0 {
		tags[i] = 0
		c.missLine = setassoc.NoKey
	}
	return i >= 0
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.data)
	c.tick, c.missLine = 0, setassoc.NoKey
	c.ResetStats()
}

// ResetStats clears statistics but keeps contents (used between the
// warm-up and measurement phases).
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.PrefetchHits = 0, 0, 0, 0
}

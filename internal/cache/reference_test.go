package cache

// The set-associative cache as it stood at cccfd15 — one 32-byte struct
// per way, Access and Fill each with their own scan — moved here
// verbatim (types renamed ref*, the three accessors nothing called
// dropped) when cache.go was re-laid as dense word arrays. It is the
// reference model that differential_test.go drives in lock-step with
// Cache: the new layout may cost the host less, it may not compute
// anything else.

import (
	"fmt"

	"addrkv/internal/arch"
)

type refWay struct {
	tag        uint64
	valid      bool
	lru        uint64 // higher = more recently used
	prefetched bool   // filled by a prefetcher and not yet demanded
	dirty      bool   // modified since fill (write-back tracking)
}

// Cache is one level of set-associative cache, indexed by physical
// line address.
type refCache struct {
	name string
	sets int
	ways int
	tick uint64
	data []refWay // sets*ways, row-major by set

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
func newRefCache(name string, size, ways int) *refCache {
	lines := size / arch.LineSize
	sets := lines / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a positive power of two", name, sets))
	}
	return &refCache{name: name, sets: sets, ways: ways, data: make([]refWay, sets*ways)}
}

// NewCacheSets builds a cache from an explicit set count.
func newRefCacheSets(name string, sets, ways int) *refCache {
	return newRefCache(name, sets*ways*arch.LineSize, ways)
}

func (c *refCache) set(line uint64) []refWay {
	s := int(line) & (c.sets - 1)
	return c.data[s*c.ways : (s+1)*c.ways]
}

// Lookup probes for the line without changing replacement state.
func (c *refCache) Lookup(line uint64) bool {
	for i := range c.set(line) {
		w := &c.set(line)[i]
		if w.valid && w.tag == line {
			return true
		}
	}
	return false
}

// Access performs a demand access for line, updating LRU and
// statistics. It returns true on hit. It does not fill on miss; the
// hierarchy does that after resolving the lower level.
func (c *refCache) Access(line uint64) bool {
	c.tick++
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			w.lru = c.tick
			if w.prefetched {
				w.prefetched = false
				c.PrefetchHits++
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill inserts line, evicting the LRU way if needed. prefetched marks
// the line as prefetcher-installed for accuracy accounting. It reports
// whether a dirty line was evicted (the caller owes a write-back).
func (c *refCache) Fill(line uint64, prefetched bool) (evictedDirty bool) {
	c.tick++
	set := c.set(line)
	victim := 0
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			// Already present (e.g. racing prefetch): refresh.
			w.lru = c.tick
			return false
		}
		if !w.valid {
			victim = i
			goto place
		}
		if w.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.Evictions++
		evictedDirty = set[victim].dirty
	}
place:
	lru := c.tick
	if prefetched {
		// Prefetched lines are inserted at low replacement priority
		// (they inherit the victim's LRU age rather than MRU), so a
		// speculative line only survives until the set's next fill
		// unless a demand access promotes it — standard low-priority
		// prefetch insertion, and what keeps an inaccurate prefetcher
		// from monopolizing the cache.
		lru = set[victim].lru
	}
	set[victim] = refWay{tag: line, valid: true, lru: lru, prefetched: prefetched}
	return evictedDirty
}

// MarkDirty flags the line as modified if present.
func (c *refCache) MarkDirty(line uint64) bool {
	for i := range c.set(line) {
		w := &c.set(line)[i]
		if w.valid && w.tag == line {
			w.dirty = true
			return true
		}
	}
	return false
}

// IsDirty reports the line's dirty flag (tests).
func (c *refCache) IsDirty(line uint64) bool {
	for i := range c.set(line) {
		w := &c.set(line)[i]
		if w.valid && w.tag == line {
			return w.dirty
		}
	}
	return false
}

// Invalidate drops the line if present, returning whether it was.
func (c *refCache) Invalidate(line uint64) bool {
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			w.valid = false
			return true
		}
	}
	return false
}

// Reset clears contents and statistics.
func (c *refCache) Reset() {
	for i := range c.data {
		c.data[i] = refWay{}
	}
	c.tick = 0
	c.Hits, c.Misses, c.Evictions, c.PrefetchHits = 0, 0, 0, 0
}

// ResetStats clears statistics but keeps contents (used between the
// warm-up and measurement phases).
func (c *refCache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.PrefetchHits = 0, 0, 0, 0
}

// Cluster-level ordered scans: SCAN/RANGE scatter to every shard —
// keys are hash-routed, so each shard holds an arbitrary slice of the
// keyspace and a globally ordered page needs every shard's view — and
// the per-shard runs merge into one ascending stream.
//
// Each shard executes a timed engine scan of up to limit keys under
// its own lock; the front-end merge (real Go code, like routing) is
// uncharged. The over-read is deliberate scatter-gather cost: a
// cluster page of N keys makes every shard walk up to N records, the
// same amplification a real sharded SCAN pays.
//
// The op gate is NOT consulted: scans have no single home key to rule
// on. Cluster mode refuses SCAN/RANGE at classify time (TRYAGAIN)
// while any slot is migrating or importing, which closes the window a
// per-key gate closes for point ops.
package shard

import (
	"bytes"

	"addrkv/internal/kv"
)

// Ordered reports whether the shard engines' index supports SCAN/RANGE
// (every shard shares one index type).
func (c *Cluster) Ordered() bool {
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Ordered()
}

// Scan visits up to limit stored keys >= start in ascending order
// (limit <= 0 = unbounded), calling fn with each key until it returns
// false. Keys passed to fn are copies the caller may keep. Returns
// keys emitted, or kv.ErrUnordered for a hash index.
func (c *Cluster) Scan(start []byte, limit int, fn func(key []byte) bool) (int, error) {
	return c.ScanO(start, limit, fn, nil)
}

// ScanO is Scan reporting one OpOutcome per shard walk, appended to
// *out (out may be nil).
func (c *Cluster) ScanO(start []byte, limit int, fn func(key []byte) bool, out *[]OpOutcome) (int, error) {
	perShard := make([][][]byte, len(c.shards))
	for si := range c.shards {
		err := c.walkShard(si, out, func(e *kv.Engine) error {
			_, err := e.Scan(start, limit, func(key []byte) bool {
				perShard[si] = append(perShard[si], append([]byte(nil), key...))
				return true
			})
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return mergeRuns(perShard, limit, func(k []byte) []byte { return k }, fn), nil
}

// rangePair is one gathered key/value pair.
type rangePair struct {
	key, val []byte
}

// RangeO visits up to limit stored pairs with start <= key <= end in
// ascending key order (end nil = unbounded above, limit <= 0 =
// unbounded), reporting one OpOutcome per shard walk, appended to *out
// (out may be nil). Slices passed to fn are copies. Returns pairs
// emitted, or kv.ErrUnordered for a hash index.
func (c *Cluster) RangeO(start, end []byte, limit int, fn func(key, value []byte) bool, out *[]OpOutcome) (int, error) {
	perShard := make([][]rangePair, len(c.shards))
	for si := range c.shards {
		err := c.walkShard(si, out, func(e *kv.Engine) error {
			_, err := e.Range(start, end, limit, func(key, value []byte) bool {
				perShard[si] = append(perShard[si], rangePair{
					key: append([]byte(nil), key...),
					val: append([]byte(nil), value...),
				})
				return true
			})
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return mergeRuns(perShard, limit, func(p rangePair) []byte { return p.key },
		func(p rangePair) bool { return fn(p.key, p.val) }), nil
}

// walkShard runs one shard's walk under its lock and, when out is
// non-nil, appends the walk's exact probe delta to *out — even for a
// walk that failed, which still reached the engine.
func (c *Cluster) walkShard(si int, out *[]OpOutcome, walk func(e *kv.Engine) error) error {
	s := c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.e.Probe()
	err := walk(s.e)
	if out != nil {
		var oc OpOutcome
		observeDelta(si, &oc, before, s.e.Probe())
		*out = append(*out, oc)
	}
	return err
}

// mergeRuns merges per-shard runs, each ascending by key, into one
// ascending emission of at most limit items (limit <= 0 = unbounded),
// stopping early when fn returns false. Returns items emitted.
func mergeRuns[T any](runs [][]T, limit int, key func(T) []byte, fn func(T) bool) int {
	heads := make([]int, len(runs))
	n := 0
	for limit <= 0 || n < limit {
		best := -1
		for si := range runs {
			if heads[si] >= len(runs[si]) {
				continue
			}
			if best < 0 || bytes.Compare(key(runs[si][heads[si]]), key(runs[best][heads[best]])) < 0 {
				best = si
			}
		}
		if best < 0 {
			break
		}
		it := runs[best][heads[best]]
		heads[best]++
		n++
		if !fn(it) {
			break
		}
	}
	return n
}

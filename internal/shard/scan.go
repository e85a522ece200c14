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

// ScanO is Scan with an optional per-shard outcome report.
func (c *Cluster) ScanO(start []byte, limit int, fn func(key []byte) bool, out *BatchOutcome) (int, error) {
	perShard := make([][][]byte, len(c.shards))
	for si, s := range c.shards {
		s.mu.Lock()
		var before kv.OpProbe
		if out != nil {
			before = s.e.Probe()
		}
		_, err := s.e.Scan(start, limit, func(key []byte) bool {
			perShard[si] = append(perShard[si], append([]byte(nil), key...))
			return true
		})
		observeBatch(si, 1, s.e, out, before)
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	return mergeKeys(perShard, limit, fn), nil
}

// rangePair is one gathered key/value pair.
type rangePair struct {
	key, val []byte
}

// RangeO visits up to limit stored pairs with start <= key <= end in
// ascending key order (end nil = unbounded above, limit <= 0 =
// unbounded), with an optional per-shard outcome report. Slices passed
// to fn are copies. Returns pairs emitted, or kv.ErrUnordered for a
// hash index.
func (c *Cluster) RangeO(start, end []byte, limit int, fn func(key, value []byte) bool, out *BatchOutcome) (int, error) {
	perShard := make([][]rangePair, len(c.shards))
	for si, s := range c.shards {
		s.mu.Lock()
		var before kv.OpProbe
		if out != nil {
			before = s.e.Probe()
		}
		_, err := s.e.Range(start, end, limit, func(key, value []byte) bool {
			perShard[si] = append(perShard[si], rangePair{
				key: append([]byte(nil), key...),
				val: append([]byte(nil), value...),
			})
			return true
		})
		observeBatch(si, 1, s.e, out, before)
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	// Merge the per-shard ascending runs.
	heads := make([]int, len(perShard))
	n := 0
	for limit <= 0 || n < limit {
		best := -1
		for si := range perShard {
			if heads[si] >= len(perShard[si]) {
				continue
			}
			if best < 0 || bytes.Compare(perShard[si][heads[si]].key, perShard[best][heads[best]].key) < 0 {
				best = si
			}
		}
		if best < 0 {
			break
		}
		p := perShard[best][heads[best]]
		heads[best]++
		n++
		if !fn(p.key, p.val) {
			break
		}
	}
	return n, nil
}

// mergeKeys merges per-shard ascending key runs into one ascending
// emission of at most limit keys.
func mergeKeys(perShard [][][]byte, limit int, fn func(key []byte) bool) int {
	heads := make([]int, len(perShard))
	n := 0
	for limit <= 0 || n < limit {
		best := -1
		for si := range perShard {
			if heads[si] >= len(perShard[si]) {
				continue
			}
			if best < 0 || bytes.Compare(perShard[si][heads[si]], perShard[best][heads[best]]) < 0 {
				best = si
			}
		}
		if best < 0 {
			break
		}
		k := perShard[best][heads[best]]
		heads[best]++
		n++
		if !fn(k) {
			break
		}
	}
	return n
}

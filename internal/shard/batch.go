// Batched cross-shard operations: the cluster side of MGET/MSET/DEL.
//
// A batch is grouped by home shard with the same routing hash single
// ops use, then executed as ONE locked call per shard through the
// engine's batch entry points (kv.Engine.GetBatch/SetBatch/
// DeleteBatch). Those entry points are defined as exactly N sequential
// ops, so modeled cycles are bit-for-bit identical to a client issuing
// the keys one at a time — what batching amortizes is the real-world
// per-op overhead (one lock acquisition and one probe diff per shard
// instead of per key), which the simulator deliberately leaves
// unmodeled. Within a shard the original key order is preserved, so a
// 1-shard cluster batch reproduces the seed engine's sequential run
// exactly (pinned by the differential tests).
package shard

import (
	"addrkv/internal/kv"
	"addrkv/internal/wal"
)

// ShardBatchOutcome reports one shard's slice of a batched operation:
// how many keys landed there and the exact probe delta across the
// whole locked sub-batch.
type ShardBatchOutcome struct {
	// Shard is the home shard this slice ran on.
	Shard int
	// Ops is the number of keys routed to this shard.
	Ops int
	// Cycles is the modeled cycle cost of the whole sub-batch.
	Cycles uint64
	// FastHits counts sub-batch ops served by the STLT/SLB fast path.
	FastHits uint64
	// Misses counts GETs of absent keys in the sub-batch.
	Misses uint64
	// TLBMisses, STBHits and PageWalks count translation events across
	// the sub-batch.
	TLBMisses uint64
	STBHits   uint64
	PageWalks uint64
}

// BatchOutcome is the telemetry report of one batched operation: one
// entry per shard touched, in shard order. Like OpOutcome it is filled
// from probe diffs taken under the shard lock — counters are only
// read, so observed batches stay bit-for-bit identical to unobserved
// ones.
type BatchOutcome struct {
	PerShard []ShardBatchOutcome
	// Denied reports that the cluster op gate rejected the batch under
	// a shard lock before any of that shard's ops ran; remaining shard
	// groups are skipped. In cluster mode a multi-key command is
	// restricted to one hash slot (hence one shard group), so a denied
	// batch applied nothing at all — the front-end answers TRYAGAIN
	// and the client retries against fresh routing.
	Denied bool
}

// TotalOps sums ops over the touched shards.
func (b *BatchOutcome) TotalOps() int {
	n := 0
	for _, s := range b.PerShard {
		n += s.Ops
	}
	return n
}

// TotalCycles sums modeled cycles over the touched shards. With shards
// running concurrently this is aggregate service time, not elapsed
// time — the same convention as ClusterStats.Agg.
func (b *BatchOutcome) TotalCycles() uint64 {
	var n uint64
	for _, s := range b.PerShard {
		n += s.Cycles
	}
	return n
}

// Merged flattens the batch into one OpOutcome for single-op telemetry
// sinks (slowlog entries): Shard is the home shard when exactly one
// shard was touched and -1 otherwise; FastHit means every op hit the
// fast path; Missed means at least one key was absent.
func (b *BatchOutcome) Merged() OpOutcome {
	out := OpOutcome{Shard: -1}
	if len(b.PerShard) == 1 {
		out.Shard = b.PerShard[0].Shard
	}
	var fastHits uint64
	for _, s := range b.PerShard {
		out.Cycles += s.Cycles
		out.TLBMisses += s.TLBMisses
		out.STBHits += s.STBHits
		out.PageWalks += s.PageWalks
		fastHits += s.FastHits
		if s.Misses > 0 {
			out.Missed = true
		}
	}
	out.FastHit = b.TotalOps() > 0 && fastHits == uint64(b.TotalOps())
	return out
}

// groupByShard returns, per shard, the indices of the keys routed to
// it, preserving original order within each shard. For a 1-shard
// cluster every key lands in group 0 without hashing.
func (c *Cluster) groupByShard(keys [][]byte) [][]int {
	groups := make([][]int, len(c.shards))
	if len(c.shards) == 1 {
		idxs := make([]int, len(keys))
		for i := range keys {
			idxs[i] = i
		}
		groups[0] = idxs
		return groups
	}
	for i, k := range keys {
		s := c.ShardFor(k)
		groups[s] = append(groups[s], i)
	}
	return groups
}

// observeBatch appends one shard's probe delta to out (when non-nil).
// Must be called with the shard's lock held.
func observeBatch(i, ops int, e *kv.Engine, out *BatchOutcome, before kv.OpProbe) {
	if out == nil {
		return
	}
	after := e.Probe()
	out.PerShard = append(out.PerShard, ShardBatchOutcome{
		Shard:     i,
		Ops:       ops,
		Cycles:    uint64(after.Machine.Cycles - before.Machine.Cycles),
		FastHits:  after.FastHits - before.FastHits,
		Misses:    after.Misses - before.Misses,
		TLBMisses: after.Machine.TLBMisses - before.Machine.TLBMisses,
		STBHits:   after.Machine.STBHits - before.Machine.STBHits,
		PageWalks: after.Machine.PageWalks - before.Machine.PageWalks,
	})
}

// GetBatchO retrieves keys with full timing, one locked engine call
// per home shard, with an optional per-batch outcome report. Results
// are positional: vals[i]/oks[i] answer keys[i].
func (c *Cluster) GetBatchO(keys [][]byte, out *BatchOutcome) (vals [][]byte, oks []bool) {
	vals = make([][]byte, len(keys))
	oks = make([]bool, len(keys))
	for si, idxs := range c.groupByShard(keys) {
		if len(idxs) == 0 {
			continue
		}
		sub := make([][]byte, len(idxs))
		for j, i := range idxs {
			sub[j] = keys[i]
		}
		s := c.shards[si]
		s.mu.Lock()
		if c.gateDeniesBatch(s.e, sub) {
			s.mu.Unlock()
			if out != nil {
				out.Denied = true
			}
			break
		}
		var before kv.OpProbe
		if out != nil {
			before = s.e.Probe()
		}
		svals, soks := s.e.GetBatch(sub)
		// Lazy expiries during the gets are all pre-op removals with no
		// op frames between them, so one post-batch drain preserves the
		// exact replay order.
		wrote := c.walOp(si, s, 0, nil, nil, nil)
		observeBatch(si, len(idxs), s.e, out, before)
		s.mu.Unlock()
		if wrote {
			c.walCommit(si, nil, len(idxs))
		}
		for j, i := range idxs {
			vals[i], oks[i] = svals[j], soks[j]
		}
	}
	return vals, oks
}

// SetBatchO inserts or updates keys[i] = values[i] with full timing,
// one locked engine call per home shard, with an optional per-batch
// outcome report.
func (c *Cluster) SetBatchO(keys, values [][]byte, out *BatchOutcome) {
	for si, idxs := range c.groupByShard(keys) {
		if len(idxs) == 0 {
			continue
		}
		subK := make([][]byte, len(idxs))
		subV := make([][]byte, len(idxs))
		for j, i := range idxs {
			subK[j], subV[j] = keys[i], values[i]
		}
		s := c.shards[si]
		s.mu.Lock()
		if c.gateDeniesBatch(s.e, subK) {
			s.mu.Unlock()
			if out != nil {
				out.Denied = true
			}
			break
		}
		var before kv.OpProbe
		if out != nil {
			before = s.e.Probe()
		}
		// SetBatch is defined as exactly N sequential Sets; running the
		// loop here keeps that identity while interleaving each op's
		// maintenance frames (lazy expiries, evictions) at their true
		// position in the log.
		for j := range subK {
			s.e.Set(subK[j], subV[j])
			c.walOp(si, s, wal.RecSet, subK[j], subV[j], nil)
		}
		observeBatch(si, len(idxs), s.e, out, before)
		s.mu.Unlock()
		c.walCommit(si, nil, len(idxs))
	}
}

// DeleteBatchO removes keys with full timing, one locked engine call
// per home shard, returning how many existed, with an optional
// per-batch outcome report.
func (c *Cluster) DeleteBatchO(keys [][]byte, out *BatchOutcome) int {
	n := 0
	for si, idxs := range c.groupByShard(keys) {
		if len(idxs) == 0 {
			continue
		}
		sub := make([][]byte, len(idxs))
		for j, i := range idxs {
			sub[j] = keys[i]
		}
		s := c.shards[si]
		s.mu.Lock()
		if c.gateDeniesBatch(s.e, sub) {
			s.mu.Unlock()
			if out != nil {
				out.Denied = true
			}
			break
		}
		var before kv.OpProbe
		if out != nil {
			before = s.e.Probe()
		}
		// Like SetBatchO: the explicit loop IS DeleteBatch, with each
		// op's maintenance frames interleaved in log order.
		for _, k := range sub {
			if s.e.Delete(k) {
				n++
			}
			c.walOp(si, s, wal.RecDel, k, nil, nil)
		}
		observeBatch(si, len(idxs), s.e, out, before)
		s.mu.Unlock()
		c.walCommit(si, nil, len(idxs))
	}
	return n
}

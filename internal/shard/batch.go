// Multi-key commands: the cluster side of MGET/MSET/DEL.
//
// A multi-key command of N keys is defined as exactly N single-key
// requests — the paper charges cycles per op, and LaKe dispatches one
// request at a time — so DoBatch runs N Reqs through the one per-op
// routine, exec. What it adds is the grouping around exec: requests are
// grouped by home shard with the routing hash single ops use, command
// order kept within each group, and each group runs under one lock
// acquisition, with probes chained across it exactly as a drain burst
// chains them, and one commit. Modeled cycles, results, outcomes and WAL
// bytes are therefore those of the same requests sent one at a time
// through Do (pinned by the differential tests); what grouping amortizes
// is the real-world per-op overhead (one lock and one commit per shard
// instead of per key), which the simulator deliberately leaves
// unmodeled.
package shard

// groupByShard returns, per shard of c, the items whose key routes to
// it, in their original order. For a 1-shard cluster every item lands
// in group 0 without hashing.
func groupByShard[T any](c *Cluster, items []T, key func(T) []byte) [][]T {
	groups := make([][]T, len(c.shards))
	if len(c.shards) == 1 {
		groups[0] = items
		return groups
	}
	for _, it := range items {
		i := c.ShardFor(key(it))
		groups[i] = append(groups[i], it)
	}
	return groups
}

// DoBatch executes reqs in place, one group per home shard in shard
// order: under the group's lock it takes the op gate's verdict once for
// the whole group (gateAllowsGroup), runs each request through exec with
// probes chained into its Out, and commits once after the lock is
// released. It returns false when the gate refused a group: nothing of
// that group ran, later groups are skipped, and the front-end answers
// TRYAGAIN. (In cluster mode a multi-key command is restricted to one
// hash slot and the gate rules per slot, so a refused command applied
// nothing unless a migration began between two of its groups.) Results
// are meaningful only when it returns true.
func (c *Cluster) DoBatch(reqs []*Req) (ok bool) {
	for i, g := range groupByShard(c, reqs, func(r *Req) []byte { return r.Key }) {
		if len(g) == 0 {
			continue
		}
		s := c.shards[i]
		s.mu.Lock()
		if !c.gateAllowsGroup(g) {
			s.mu.Unlock()
			return false
		}
		wrote := c.runChained(i, s, g, 0)
		s.mu.Unlock()
		if wrote {
			c.walCommit(i, g, len(g))
		}
	}
	return true
}

// runChained runs reqs through exec in order on shard i, chaining probe
// snapshots across them (op N's after-probe is op N+1's before-probe)
// into each Req.Out — the one loop a worker's drain burst (n = the
// burst's size, for exec's queue.wait/drain events) and a DoBatch group
// (n = 0: in place) share. It reports whether frames are pending commit.
// Must hold the shard lock.
func (c *Cluster) runChained(i int, s *shardSlot, reqs []*Req, n int) (wrote bool) {
	before := s.e.Probe()
	for bi, r := range reqs {
		ran, framed := c.exec(i, s, r, bi, n)
		if !ran {
			continue // denied: no probe movement, before stays chained
		}
		wrote = wrote || framed
		after := s.e.Probe()
		observeDelta(i, &r.Out, before, after)
		before = after
	}
	return wrote
}

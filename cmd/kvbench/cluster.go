// Cluster-aware load generation (-cluster): the bench bootstraps a
// slot→address table from CLUSTER SLOTS on the seed address, predicts
// each key's node, and pipelines per-node sub-batches. Redirects are
// followed the way a real cluster client would: MOVED repairs the
// cached table and retries at the named node, ASK follows with an
// ASKING-prefixed one-shot, TRYAGAIN backs off briefly — so a live
// slot migration costs extra roundtrips but never failed ops, and the
// artifact reports how many of each redirect the run absorbed.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"addrkv/internal/cluster"
	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
	"addrkv/internal/ycsb"
)

// slotTable is the client-side slot→address cache, shared by every
// bench connection and repaired in place on MOVED.
type slotTable struct {
	mu    sync.RWMutex
	addrs []string
}

func (st *slotTable) addr(slot uint16) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.addrs) == 0 {
		return ""
	}
	return st.addrs[slot]
}

func (st *slotTable) set(slot uint16, addr string) {
	st.mu.Lock()
	if len(st.addrs) == 0 {
		st.addrs = make([]string, cluster.NumSlots)
	}
	st.addrs[slot] = addr
	st.mu.Unlock()
}

// refresh rebuilds the whole table from one CLUSTER SLOTS call.
func (st *slotTable) refresh(network, seedAddr string) error {
	c, err := resp.Dial(network, seedAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	v, err := c.Do("CLUSTER", "SLOTS")
	if err != nil {
		return err
	}
	ranges, ok := v.([]any)
	if !ok {
		return fmt.Errorf("CLUSTER SLOTS: unexpected reply %T (%v)", v, v)
	}
	addrs := make([]string, cluster.NumSlots)
	for _, e := range ranges {
		ent, ok := e.([]any)
		if !ok || len(ent) < 3 {
			return fmt.Errorf("CLUSTER SLOTS: bad range entry %v", e)
		}
		start, ok1 := ent[0].(int64)
		end, ok2 := ent[1].(int64)
		owner, ok3 := ent[2].([]any)
		if !ok1 || !ok2 || !ok3 || len(owner) < 1 ||
			start < 0 || end >= cluster.NumSlots || start > end {
			return fmt.Errorf("CLUSTER SLOTS: bad range entry %v", e)
		}
		oa, ok := owner[0].([]byte)
		if !ok {
			return fmt.Errorf("CLUSTER SLOTS: bad owner %v", owner)
		}
		for s := start; s <= end; s++ {
			addrs[s] = string(oa)
		}
	}
	st.mu.Lock()
	st.addrs = addrs
	st.mu.Unlock()
	return nil
}

// parseRedirect decodes "MOVED <slot> <addr>" / "ASK <slot> <addr>" /
// "TRYAGAIN ..." error replies; ok is false for any other error.
func parseRedirect(msg string) (kind string, slot uint16, addr string, ok bool) {
	if strings.HasPrefix(msg, "TRYAGAIN") {
		return "TRYAGAIN", 0, "", true
	}
	fields := strings.Fields(msg)
	if len(fields) != 3 || (fields[0] != "MOVED" && fields[0] != "ASK") {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 || n >= cluster.NumSlots {
		return "", 0, "", false
	}
	return fields[0], uint16(n), fields[2], true
}

// clusterCounters aggregates redirect traffic across connections.
// repairs counts slot-table rebuilds forced by an unreachable node —
// a redirect or prediction that routed to a dead address.
type clusterCounters struct {
	moved, ask, tryagain, repairs atomic.Uint64
}

// benchOp is one generated command.
type benchOp struct {
	get bool
	key []byte
	val []byte
}

// clusterBench is one connection-slot's worth of cluster load: a
// persistent connection per node, lazily dialed. seedAddr is the bootstrap node
// the slot table is re-fetched from when a routed-to node turns out to
// be dead.
type clusterBench struct {
	network  string
	seedAddr string
	st       *slotTable
	cc       *clusterCounters
	conns    map[string]*resp.Client
}

func (b *clusterBench) conn(addr string) (*resp.Client, error) {
	if nc, ok := b.conns[addr]; ok {
		return nc, nil
	}
	nc, err := resp.Dial(b.network, addr)
	if err != nil {
		return nil, err
	}
	b.conns[addr] = nc
	return nc, nil
}

func (b *clusterBench) closeAll() {
	for _, nc := range b.conns {
		nc.Close()
	}
}

// repairRoute handles a dead routing target: log the node (once per
// incident, with the cause), drop its cached connection, and rebuild
// the slot table from the seed so the retry loop re-routes by the
// repaired map instead of aborting the whole run. The cluster has no
// automatic failover, so if the map still names the dead node the
// caller's bounded retry surfaces the original error.
func (b *clusterBench) repairRoute(addr string, cause error) {
	b.cc.repairs.Add(1)
	log.Printf("kvbench: node %s unreachable (%v); refreshing slot table from %s", addr, cause, b.seedAddr)
	if nc, ok := b.conns[addr]; ok {
		nc.Close()
		delete(b.conns, addr)
	}
	if err := b.st.refresh(b.network, b.seedAddr); err != nil {
		log.Printf("kvbench: slot table refresh from %s failed: %v", b.seedAddr, err)
	}
}

func writeOp(w *resp.Writer, op benchOp) error {
	if op.get {
		return w.WriteCommand([]byte("GET"), op.key)
	}
	return w.WriteCommand([]byte("SET"), op.key, op.val)
}

// retry resolves one redirected op. MOVED repairs the slot table and
// chases the named node; ASK one-shots the named node behind ASKING
// without caching; TRYAGAIN backs off and re-resolves (migration
// commits within microseconds of the dual-serve window closing).
func (b *clusterBench) retry(op benchOp, msg string) (any, error) {
	slot := cluster.SlotOf(op.key)
	repairs := 0
	for attempt := 0; attempt < 32; attempt++ {
		kind, rslot, raddr, ok := parseRedirect(msg)
		if !ok {
			return fmt.Errorf("%s", msg), nil // a genuine error reply
		}
		var nc *resp.Client
		var err error
		asking := false
		target := raddr
		switch kind {
		case "MOVED":
			b.cc.moved.Add(1)
			b.st.set(rslot, raddr)
			nc, err = b.conn(raddr)
		case "ASK":
			b.cc.ask.Add(1)
			asking = true
			nc, err = b.conn(raddr)
		case "TRYAGAIN":
			b.cc.tryagain.Add(1)
			time.Sleep(time.Duration(100+50*attempt) * time.Microsecond)
			target = b.st.addr(slot)
			nc, err = b.conn(target)
		}
		if err != nil {
			// The redirect named a node that does not answer (killed
			// mid-run): repair the table and chase the refreshed owner
			// instead of aborting. Bounded — with no failover, a map
			// that keeps naming the dead node is a terminal condition.
			if repairs >= 3 {
				return nil, err
			}
			repairs++
			b.repairRoute(target, err)
			msg = fmt.Sprintf("MOVED %d %s", slot, b.st.addr(slot))
			continue
		}
		if asking {
			if err := nc.W.WriteCommand([]byte("ASKING")); err != nil {
				return nil, err
			}
		}
		if err := writeOp(nc.W, op); err != nil {
			return nil, err
		}
		if err := nc.W.Flush(); err != nil {
			return nil, err
		}
		if asking {
			if _, err := nc.R.ReadReply(); err != nil { // the +OK for ASKING
				return nil, err
			}
		}
		v, err := nc.R.ReadReply()
		if err != nil {
			return nil, err
		}
		e, isErr := v.(error)
		if !isErr {
			return v, nil
		}
		msg = e.Error()
	}
	return nil, fmt.Errorf("redirect loop did not settle: %s", msg)
}

// benchClusterConn is the cluster-mode counterpart of benchConn: each
// batch is grouped by predicted node, pipelined per node, and any
// redirected op is chased to completion before the batch counts as
// done — the closed loop measures migration disruption as latency,
// not as lost ops.
func benchClusterConn(cfg benchConfig, depth, ops int, seed uint64,
	rt, lat *telemetry.Histogram, st *slotTable, cc *clusterCounters) (uint64, uint64, error) {
	b := &clusterBench{network: cfg.network, seedAddr: cfg.addr, st: st, cc: cc, conns: map[string]*resp.Client{}}
	defer b.closeAll()
	rng := rand.New(rand.NewSource(int64(seed)))

	batchOps := make([]benchOp, 0, depth)
	groups := map[string][]int{}
	var sent, errs uint64
	for remaining := ops; remaining > 0; {
		batch := depth
		if remaining < batch {
			batch = remaining
		}
		batchOps = batchOps[:0]
		for i := 0; i < batch; i++ {
			id := uint64(rng.Intn(cfg.keys))
			op := benchOp{get: rng.Float64() < cfg.getRatio, key: ycsb.KeyName(id)}
			if !op.get {
				op.val = ycsb.Value(id, uint32(sent)+uint32(i), cfg.vsize)
			}
			batchOps = append(batchOps, op)
		}
		for k := range groups {
			delete(groups, k)
		}
		for i, op := range batchOps {
			addr := st.addr(cluster.SlotOf(op.key))
			groups[addr] = append(groups[addr], i)
		}
		t0 := time.Now()
		for addr, idxs := range groups {
			nc, err := b.conn(addr)
			if err != nil {
				// The predicted node is unreachable: log + repair the
				// slot table, then chase each of the group's ops
				// individually through the redirect machinery (which
				// re-repairs, bounded, if the refreshed map is stale).
				b.repairRoute(addr, err)
				for _, i := range idxs {
					slot := cluster.SlotOf(batchOps[i].key)
					v, rerr := b.retry(batchOps[i], fmt.Sprintf("MOVED %d %s", slot, b.st.addr(slot)))
					if rerr != nil {
						return sent, errs, rerr
					}
					if _, stillErr := v.(error); stillErr {
						errs++
					}
					sent++
				}
				continue
			}
			for _, i := range idxs {
				if err := writeOp(nc.W, batchOps[i]); err != nil {
					return sent, errs, err
				}
			}
			if err := nc.W.Flush(); err != nil {
				return sent, errs, err
			}
			for _, i := range idxs {
				v, err := nc.R.ReadReply()
				if err != nil {
					return sent, errs, fmt.Errorf("read reply: %w", err)
				}
				if e, isErr := v.(error); isErr {
					if _, _, _, redir := parseRedirect(e.Error()); redir {
						v, err = b.retry(batchOps[i], e.Error())
						if err != nil {
							return sent, errs, err
						}
					}
					if _, stillErr := v.(error); stillErr {
						errs++
					}
				}
				sent++
			}
		}
		us := uint64(time.Since(t0).Microseconds())
		rt.Observe(us)
		lat.ObserveN(us, uint64(batch))
		remaining -= batch
	}
	return sent, errs, nil
}

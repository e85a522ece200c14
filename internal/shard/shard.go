// Package shard scales the paper's single-core simulated engine to a
// multi-core cluster: N independent kv.Engine instances (each with its
// own simulated machine, caches, TLBs, STB/IPB, and an STLT sized at
// keys/N), with each key routed to one shard by a stable hash.
//
// The design follows the scaling path the related work lays out: LaKe
// replicates processing elements over a common store, and the paper's
// own STLT is a *per-process* kernel table — so a shard-per-core
// cluster where every core keeps private translation state (TLB, STB,
// IPB) and a private STLT slice is the faithful multi-core extension.
// Cross-shard state is nil by construction: a key's records, STLT rows
// and cache lines live entirely on its home shard, so shards never
// need coherence traffic and the front-end may drive them from
// concurrent goroutines (one lock per shard).
//
// Routing happens in the front-end (the real Go dispatch code), not on
// any simulated machine: it models the NIC/steering logic that real
// multi-core KV servers (and LaKe's hardware scheduler) place before
// the cores, so no simulated cycles are charged for it.
package shard

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"addrkv/internal/hashfn"
	"addrkv/internal/kv"
	"addrkv/internal/trace"
	"addrkv/internal/wal"
	"addrkv/internal/ycsb"
)

// RouteSeed is the fixed seed of the shard-routing hash. It is
// deliberately distinct from the engines' fast-path hash seed so that
// shard placement and STLT row placement are uncorrelated. Exported
// because cluster mode derives hash slots from the same function
// (internal/cluster.SlotOf), so slot placement and shard placement
// stay consistent views of one hash.
const RouteSeed = 0x5A4DC0DE

// RouteValue returns the default routing-hash value of key — xxh64
// with RouteSeed, the 64-bit value ShardFor reduces to a shard index
// and cluster mode reduces to a hash slot. Cluster-aware clients use
// it for slot prediction so client and server always agree on
// placement.
func RouteValue(key []byte) uint64 { return hashfn.XXH64.Hash(key, RouteSeed) }

// Config shapes a Cluster.
type Config struct {
	// Shards is the number of independent engines (default 1).
	Shards int
	// Engine is the per-shard engine template. Engine.Keys is the
	// TOTAL expected key count across the cluster; each shard's index
	// and STLT are sized at Keys/Shards. Shard i runs with seed
	// Engine.Seed+i so identically-configured shards do not share hash
	// layouts (shard 0 keeps the template seed, which is what makes a
	// 1-shard cluster bit-identical to a single engine).
	Engine kv.Config
	// RouteHash overrides the key-to-shard routing hash
	// (default xxh64).
	RouteHash *hashfn.Func
}

// Cluster is a sharded set of simulated engines.
type Cluster struct {
	shards []*shardSlot
	route  hashfn.Func
	// mask is len(shards)-1 when the shard count is a power of two —
	// ShardFor then routes with one AND instead of a 64-bit modulo.
	// Zero means "use %" (non-power-of-two counts; shard 0's mask
	// would also be 0, but that count takes the len==1 early return).
	mask uint64

	// Worker runtime (see worker.go): one owning goroutine per shard
	// draining a bounded MPSC request ring. The atomic pointer lets
	// metric scrapes read depth/drain counters concurrently with
	// StartWorkers/StopWorkers.
	wset    atomic.Pointer[workerSet]
	wwg     sync.WaitGroup
	onDrain func(shard, burst int)
	// sweepLimit is the per-drain active-expiry sample size (worker
	// runtime; 0 = off). Set before StartWorkers.
	sweepLimit int

	// logs, when non-nil, holds one append-only log per shard
	// (durability; see durability.go). Installed by AttachWAL before
	// traffic and read without synchronization on the hot path.
	logs []*wal.Log

	// gate, when non-nil, is the cluster-mode op gate consulted under
	// the shard lock before every single-key data op (see migrate.go).
	// Atomic so migrations can install/clear it against live traffic.
	gate atomic.Pointer[Gate]
}

// shardSlot pairs an engine with its serialization lock: each engine
// models ONE core, so operations on the same shard serialize while
// different shards proceed concurrently.
type shardSlot struct {
	mu sync.Mutex
	e  *kv.Engine
	// maint is the drain scratch for the engine's maintenance queue
	// (lazy expiries, evictions); only touched under mu.
	maint []kv.Maint
}

// New builds a cluster of cfg.Shards engines.
func New(cfg Config) (*Cluster, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", n)
	}
	route := hashfn.XXH64
	if cfg.RouteHash != nil {
		route = *cfg.RouteHash
	}
	perShard := cfg.Engine
	perShard.Keys = (cfg.Engine.Keys + n - 1) / n
	c := &Cluster{route: route}
	if n&(n-1) == 0 {
		c.mask = uint64(n - 1)
	}
	for i := 0; i < n; i++ {
		ecfg := perShard
		ecfg.Seed = cfg.Engine.Seed + uint64(i)
		e, err := kv.New(ecfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.shards = append(c.shards, &shardSlot{e: e})
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// ShardFor returns the home shard of a key — a stable function of the
// key bytes only, so clients, replayers and the server always agree.
func (c *Cluster) ShardFor(key []byte) int {
	if len(c.shards) == 1 {
		return 0
	}
	h := c.route.Hash(key, RouteSeed)
	if c.mask != 0 {
		// h & (2^k - 1) == h % 2^k: bit-identical routing, no divide.
		return int(h & c.mask)
	}
	return int(h % uint64(len(c.shards)))
}

func (c *Cluster) slot(key []byte) *shardSlot {
	return c.shards[c.ShardFor(key)]
}

// Engine exposes shard i's engine directly, WITHOUT locking — for
// single-threaded phases (tests, harness setup) only.
func (c *Cluster) Engine(i int) *kv.Engine { return c.shards[i].e }

// Load bulk-inserts n sequential YCSB keys (untimed), each routed to
// its home shard — the cluster form of kv.Engine.Load. With a WAL
// attached, each load is recorded (RecLoad — replayed untimed) so a
// preloaded server recovers to the same warm state.
func (c *Cluster) Load(n, valueSize int) {
	var buf [ycsb.KeyLen]byte
	val := make([]byte, valueSize)
	for id := uint64(0); id < uint64(n); id++ {
		key := ycsb.KeyNameInto(buf[:], id)
		i := c.ShardFor(key)
		s := c.shards[i]
		s.mu.Lock()
		ycsb.ValueInto(val, id, 0)
		s.e.LoadOne(key, val)
		c.walAppend(i, s.e, wal.RecLoad, key, val, nil)
		s.mu.Unlock()
	}
	for i := range c.shards {
		c.walCommit(i, nil, 0)
	}
}

// OpOutcome describes one completed data-path operation for telemetry:
// which shard served it, what it cost in modeled cycles, and how the
// addressing path resolved. It is filled by diffing kv.OpProbe
// snapshots around the op while the shard lock is held, so the deltas
// are exact even under concurrent traffic — and since probing only
// reads counters, observed runs stay bit-for-bit identical to
// unobserved ones.
type OpOutcome struct {
	// Shard is the home shard that served the operation.
	Shard int
	// Cycles is the modeled cycle cost charged for this operation.
	Cycles uint64
	// FastHit reports whether the STLT/SLB fast path served it.
	FastHit bool
	// Missed reports a GET/EXISTS of an absent key.
	Missed bool
	// TLBMisses, STBHits and PageWalks count translation events
	// during this operation.
	TLBMisses uint64
	STBHits   uint64
	PageWalks uint64
	// Trace, when set by the caller BEFORE the op, is the front-end's
	// span for this operation: the shard anchors its cycle base and
	// attaches it to the engine's event hooks for the duration of the
	// op (under the shard lock), then detaches it with the total cycle
	// cost stamped. The caller finishes the span (reply events,
	// Tracer.Finish) after the outcome returns.
	Trace *trace.Op
	// Bypass, when set by the caller BEFORE the op, exempts it from
	// the cluster op gate — used for ASK-redirected commands the
	// client has already re-routed to this node (see SetOpGate).
	Bypass bool
	// Denied reports that the op gate rejected the operation under the
	// shard lock: no engine call ran, no cycles were charged, and the
	// front-end must answer with a redirect instead of a reply.
	Denied bool
}

// observeDelta fills out from a pair of probe snapshots taken under
// the shard lock. Do takes one exact pair per op; the worker's drain
// loop chains them (op N's after is op N+1's before), halving probe
// cost across a burst.
func observeDelta(i int, out *OpOutcome, before, after kv.OpProbe) {
	*out = OpOutcome{
		Shard:     i,
		Cycles:    uint64(after.Machine.Cycles - before.Machine.Cycles),
		FastHit:   after.FastHits > before.FastHits,
		Missed:    after.Misses > before.Misses,
		TLBMisses: after.Machine.TLBMisses - before.Machine.TLBMisses,
		STBHits:   after.Machine.STBHits - before.Machine.STBHits,
		PageWalks: after.Machine.PageWalks - before.Machine.PageWalks,
		Trace:     out.Trace,
		Bypass:    out.Bypass,
	}
}

// attachTrace anchors a caller-provided span (out.Trace) on shard i's
// engine: sets the cycle base, stamps shard.lock, and connects the
// machine's event hooks. Must hold the shard lock.
func attachTrace(i int, e *kv.Engine, out *OpOutcome) {
	cyc := uint64(e.M.Cycles())
	out.Trace.SetBase(cyc)
	out.Trace.Event(trace.EvShardLock, cyc, int64(i), 0, 0)
	e.AttachTrace(out.Trace)
}

// detachTrace stamps the span's total cycle cost and disconnects the
// event hooks. Must hold the shard lock.
func detachTrace(e *kv.Engine, out *OpOutcome) {
	out.Trace.End(uint64(e.M.Cycles()))
	e.DetachTrace()
}

// exec is the one copy of the per-op sequence: op gate, span attach,
// engine call, WAL frames (the op's own plus the maintenance it
// triggered — reads log too when they caused a lazy expiry), span
// detach — the only place a keyed engine op runs. Everything that
// differs between running in place and running from a drain stays with
// the callers, Do and runChained (serveBurst, DoBatch): the lock, the
// probes, the commit, the completion. bi/n are r's position
// in a drain burst and the burst's size; n == 0 means in place, which
// has no queue.wait and drain events to stamp. ran is false when the
// gate denied the op: no engine call ran, no cycles were charged, and
// r.Out.Denied tells the front-end to answer with a redirect. wrote
// reports frames pending commit. Must hold the shard lock.
func (c *Cluster) exec(i int, s *shardSlot, r *Req, bi, n int) (ran, wrote bool) {
	out := &r.Out
	if !c.gateAllows(s.e, r.Key, out) {
		r.OK, r.N = false, 0
		return false, false
	}
	if out.Trace != nil {
		if n > 0 {
			out.Trace.EventRel(trace.EvQueueWait, 0, int64(i), int64(bi), int64(n))
		}
		attachTrace(i, s.e, out)
		if n > 0 {
			out.Trace.Event(trace.EvDrain, uint64(s.e.M.Cycles()), int64(n), int64(bi), 0)
		}
	}
	var opKind wal.Kind // 0: the op writes no frame of its own
	var opVal []byte
	var dlb [8]byte
	switch r.Kind {
	case OpGet:
		r.Val, r.OK = s.e.GetInto(r.Key, r.Val[:0])
	case OpSet:
		s.e.Set(r.Key, r.Value)
		r.OK = true
		opKind, opVal = wal.RecSet, r.Value
	case OpDelete:
		r.OK = s.e.Delete(r.Key)
		opKind = wal.RecDel
	case OpExists:
		r.OK = s.e.Exists(r.Key)
	case OpGetTouch:
		r.OK = s.e.GetTouch(r.Key)
	case OpExpireAt:
		r.N = int64(s.e.ExpireAt(r.Key, r.Deadline))
		if r.N == 1 {
			binary.LittleEndian.PutUint64(dlb[:], uint64(r.Deadline))
			opKind, opVal = wal.RecExpire, dlb[:]
		}
	case OpTTL:
		r.N = s.e.TTL(r.Key)
	}
	wrote = c.walOp(i, s, opKind, r.Key, opVal, out)
	if out.Trace != nil {
		detachTrace(s.e, out)
	}
	return true, wrote
}

// Do executes r in place on its key's home shard, with full timing:
// one lock acquisition, one exact probe pair into r.Out, and — when
// the op left frames in the shard's log — its own commit before the
// lock is released. A Cluster on which StartWorkers was never called
// serves everything this way; it is the reference model the worker
// runtime is held to, op for op. Set r.Out.Trace and r.Out.Bypass
// before the call; results are meaningful unless r.Out.Denied.
func (c *Cluster) Do(r *Req) {
	i := c.ShardFor(r.Key)
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.e.Probe()
	ran, wrote := c.exec(i, s, r, 0, 0)
	if !ran {
		return
	}
	observeDelta(i, &r.Out, before, s.e.Probe())
	if wrote {
		c.walCommit(i, []*Req{r}, 1)
	}
}

// Get retrieves a key with full timing on its home shard.
func (c *Cluster) Get(key []byte) ([]byte, bool) {
	r := Req{Kind: OpGet, Key: key}
	c.Do(&r)
	return r.Val, r.OK
}

// GetO is Get reporting the op's outcome through out (non-nil). It and
// SetO outlive the other outcome forms only because bench/ledger.go's
// lock-per-op pass calls them and a change to served code may not edit
// bench/; everything else that wants an outcome calls Do.
func (c *Cluster) GetO(key []byte, out *OpOutcome) ([]byte, bool) {
	r := Req{Kind: OpGet, Key: key, Out: *out}
	c.Do(&r)
	*out = r.Out
	return r.Val, r.OK
}

// GetTouch performs a timed GET charging the value read without
// materializing it.
func (c *Cluster) GetTouch(key []byte) bool {
	r := Req{Kind: OpGetTouch, Key: key}
	c.Do(&r)
	return r.OK
}

// Set inserts or updates a key with full timing on its home shard.
func (c *Cluster) Set(key, value []byte) { c.Do(&Req{Kind: OpSet, Key: key, Value: value}) }

// SetO is Set reporting the op's outcome through out (see GetO).
func (c *Cluster) SetO(key, value []byte, out *OpOutcome) {
	r := Req{Kind: OpSet, Key: key, Value: value, Out: *out}
	c.Do(&r)
	*out = r.Out
}

// Delete removes a key with full timing on its home shard.
func (c *Cluster) Delete(key []byte) bool {
	r := Req{Kind: OpDelete, Key: key}
	c.Do(&r)
	return r.OK
}

// Exists performs a timed existence-only check on the home shard.
func (c *Cluster) Exists(key []byte) bool {
	r := Req{Kind: OpExists, Key: key}
	c.Do(&r)
	return r.OK
}

// ExpireAt arms an absolute TTL deadline (unix ns) with full timing on
// the key's home shard, returning 1 when armed and 0 when the key is
// absent.
func (c *Cluster) ExpireAt(key []byte, deadline int64) int {
	r := Req{Kind: OpExpireAt, Key: key, Deadline: deadline}
	c.Do(&r)
	return int(r.N)
}

// TTL reports a key's remaining TTL with full timing on its home shard
// (-2 absent, -1 no deadline, remaining ns otherwise).
func (c *Cluster) TTL(key []byte) int64 {
	r := Req{Kind: OpTTL, Key: key}
	c.Do(&r)
	return r.N
}

// SetClock installs one TTL time source on every shard engine (tests
// and differential harnesses; nil restores real time).
func (c *Cluster) SetClock(fn func() int64) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.e.SetClock(fn)
		s.mu.Unlock()
	}
}

// Now reads the cluster's TTL clock (shard 0's engine clock — every
// shard shares the source installed by SetClock).
func (c *Cluster) Now() int64 {
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Now()
}

// SweepExpired runs one active-expiry cycle on every shard, examining
// up to limit armed deadlines per shard, and logs the reaped keys.
// kvserve's sweep ticker calls this, with or without the worker
// runtime, whose drain loop also sweeps on its own (SetSweepLimit).
func (c *Cluster) SweepExpired(limit int) int {
	reaped := 0
	for i, s := range c.shards {
		s.mu.Lock()
		n := s.e.SweepExpired(limit)
		if n > 0 {
			reaped += n
			if c.walOp(i, s, 0, nil, nil, nil) {
				c.walCommit(i, nil, n)
			}
		}
		s.mu.Unlock()
	}
	return reaped
}

// RunOp executes one generated workload operation on the home shard —
// except Scan ops, which scatter-gather every shard like the SCAN
// command. The harness path runs without a WAL; the maintenance queue
// is still drained (and discarded) so TTL/eviction runs cannot grow
// it.
func (c *Cluster) RunOp(op ycsb.Op, valueSize int) {
	if op.Type == ycsb.Scan {
		_, _ = c.Scan(ycsb.KeyName(op.KeyID), op.ScanLen, func([]byte) bool { return true })
		return
	}
	// The engine renders its own key. Routing among several shards needs
	// one here too, and a key passed to the route hash (a func value)
	// escapes to the heap, so a single shard skips it.
	s := c.shards[0]
	if len(c.shards) > 1 {
		s = c.slot(ycsb.KeyName(op.KeyID))
	}
	s.mu.Lock()
	s.e.RunOp(op, valueSize)
	if s.e.MaintPending() {
		s.maint = s.e.TakeMaint(s.maint)
	}
	s.mu.Unlock()
}

// ShardLen returns the number of keys stored on shard i.
func (c *Cluster) ShardLen(i int) int {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Idx.Len()
}

// Len returns the total number of stored keys across all shards.
func (c *Cluster) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.e.Idx.Len()
		s.mu.Unlock()
	}
	return total
}

// MarkMeasurement resets every shard's counters: everything before
// this call was warm-up.
func (c *Cluster) MarkMeasurement() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.e.MarkMeasurement()
		s.mu.Unlock()
	}
}

// Reset returns every shard to its just-built state (FLUSHALL). With
// a WAL attached, each shard logs a flush record at its position in
// that shard's op order, so replay flushes at the same point.
func (c *Cluster) Reset() error {
	for i, s := range c.shards {
		s.mu.Lock()
		err := s.e.Reset()
		if err == nil {
			c.walAppend(i, s.e, wal.RecFlush, nil, nil, nil)
			c.walCommit(i, nil, 1)
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// UsedBytes sums the tracked record bytes across shards (0 without
// maxmemory).
func (c *Cluster) UsedBytes() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.e.UsedBytes()
		s.mu.Unlock()
	}
	return total
}

// ExpiresArmed sums the armed TTL deadlines across shards.
func (c *Cluster) ExpiresArmed() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.e.ExpiresArmed()
		s.mu.Unlock()
	}
	return total
}

// ClusterStats is the merged view of a cluster run.
type ClusterStats struct {
	// PerShard holds each shard's own stats snapshot.
	PerShard []kv.Stats
	// Agg is the counter-wise sum over shards. Its CyclesPerOp is the
	// ops-weighted mean cost of one operation — the per-core service
	// time, NOT elapsed time (shards run concurrently).
	Agg kv.Stats
	// MaxShardCycles is the busiest shard's cycle count — the modeled
	// wall-clock bound of the run, since the slowest core finishes
	// last while the others idle.
	MaxShardCycles uint64
}

// CyclesPerOp returns the ops-weighted mean cycles per operation.
func (cs ClusterStats) CyclesPerOp() float64 { return cs.Agg.CyclesPerOp() }

// ModeledThroughput returns operations per modeled wall-clock cycle
// (total ops / busiest shard's cycles). Dividing two of these yields
// the modeled scaling factor between shard counts.
func (cs ClusterStats) ModeledThroughput() float64 {
	if cs.MaxShardCycles == 0 {
		return 0
	}
	return float64(cs.Agg.Ops) / float64(cs.MaxShardCycles)
}

// Stats snapshots and merges all shard counters.
func (c *Cluster) Stats() ClusterStats {
	cs := ClusterStats{PerShard: make([]kv.Stats, len(c.shards))}
	for i, s := range c.shards {
		s.mu.Lock()
		st := s.e.Stats()
		s.mu.Unlock()
		cs.PerShard[i] = st
		cs.Agg = cs.Agg.Add(st)
		if cyc := uint64(st.Machine.Cycles); cyc > cs.MaxShardCycles {
			cs.MaxShardCycles = cyc
		}
	}
	return cs
}

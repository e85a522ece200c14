// Package kv assembles the simulated machine, an indexing structure,
// and optionally an STLT fast path or an SLB software cache into a
// runnable key-value engine — the "benchmark" the paper measures. It
// also models the Redis command layer (parse/dispatch/reply) so that
// Redis-level results show the dilution the paper reports: raw
// indexing structures speed up by 2-13x while Redis, which spends much
// time on non-indexing work, gains about 1.4x.
package kv

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/cache"
	"addrkv/internal/core"
	"addrkv/internal/cpu"
	"addrkv/internal/hashfn"
	"addrkv/internal/index"
	"addrkv/internal/slb"
	"addrkv/internal/tlb"
	"addrkv/internal/trace"
	"addrkv/internal/ycsb"
)

// Mode selects the acceleration configuration.
type Mode string

// Engine modes. ModeSTLTSW and ModeSTLTVA are the Figure 19 ablations.
const (
	ModeBaseline Mode = "baseline"
	ModeSTLT     Mode = "stlt"
	ModeSLB      Mode = "slb"
	ModeSTLTSW   Mode = "stlt-sw"
	ModeSTLTVA   Mode = "stlt-va"
)

// IndexKind selects the indexing structure (Table II).
type IndexKind string

// The four kernel-benchmark structures. KindChainHash doubles as the
// Redis dict.
const (
	KindChainHash IndexKind = "chainhash"
	KindDenseHash IndexKind = "densehash"
	KindRBTree    IndexKind = "rbtree"
	KindBTree     IndexKind = "btree"
	// KindSkipList is an extension beyond Table II: the Redis zset
	// skiplist, exercising the paper's "any structure with
	// get(key)->record semantics" claim on a fourth ordered index.
	KindSkipList IndexKind = "skiplist"
)

// IndexKinds lists the paper's four kernel-benchmark structures
// (Table II).
func IndexKinds() []IndexKind {
	return []IndexKind{KindChainHash, KindDenseHash, KindRBTree, KindBTree}
}

// AllIndexKinds additionally includes the extension structures.
func AllIndexKinds() []IndexKind {
	return append(IndexKinds(), KindSkipList)
}

// Config shapes an engine.
type Config struct {
	// Params is the simulated machine (DefaultMachineParams if zero).
	Params arch.MachineParams
	// Keys is the expected key count (presizes the index).
	Keys int
	// Index selects the structure.
	Index IndexKind
	// Mode selects baseline/STLT/SLB/ablations.
	Mode Mode
	// SlowHash is the index's own hash function. Defaults to SipHash
	// when RedisLayer is set (Redis's default) and MurmurHash64A
	// otherwise (the kernel benchmarks' default).
	SlowHash *hashfn.Func
	// FastHash is the STLT/SLB fast-path hash (default xxh3).
	FastHash *hashfn.Func
	// FastHashHW models the hardware hash unit the paper considered
	// ("A hardware hash gains performance at the expense of
	// flexibility", Section III-B): the fast-path hash costs a fixed
	// HWHashLatency instead of its software cost model.
	FastHashHW bool
	// STLTRows / STLTWays size the STLT. Zero rows picks the default
	// scaled equivalent of the paper's 512 MB table (3.2 rows/key,
	// rounded to a power-of-two set count); zero ways picks 4.
	STLTRows int
	STLTWays int
	// SLBEntries sizes the SLB cache table. Zero picks the paper's
	// Figure 11 setup (10 GB vs 512 MB ≈ 8x the STLT's entries).
	SLBEntries int
	// RedisLayer adds the Redis command-processing cost model.
	RedisLayer bool
	// Monitor enables the runtime on/off performance monitor.
	Monitor bool
	// AutoTune enables the miss-ratio-driven STLT resizer (Section
	// III-F: "monitor STLT miss ratio and tune the performance
	// factors").
	AutoTune bool
	// DataPrefetcher: "", "stride" or "vldp" (Figure 19 right).
	DataPrefetcher string
	// TLBPrefetch enables distance TLB prefetching (Section IV-F).
	TLBPrefetch bool
	// Seed seeds hash functions and the STLT's counter PRNG.
	Seed uint64
	// MaxMemory, when positive, bounds the store's record bytes:
	// exceeding it after a SET evicts keys under the same in-set LFU
	// rule the STLT uses for its rows (probabilistic 4-bit counters,
	// minimum-counter first-wins victim; see expire.go). Zero disables
	// eviction entirely.
	MaxMemory int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Params.L1Size == 0 {
		c.Params = arch.DefaultMachineParams()
	}
	if c.Keys <= 0 {
		return c, fmt.Errorf("kv: Config.Keys must be positive")
	}
	if c.Index == "" {
		c.Index = KindChainHash
	}
	if c.Mode == "" {
		c.Mode = ModeBaseline
	}
	if c.SlowHash == nil {
		if c.RedisLayer {
			f := hashfn.SipHash
			c.SlowHash = &f
		} else {
			f := hashfn.Murmur64A
			c.SlowHash = &f
		}
	}
	if c.FastHash == nil {
		f := hashfn.XXH3
		c.FastHash = &f
	}
	if c.STLTWays == 0 {
		c.STLTWays = 4
	}
	if c.STLTRows == 0 {
		c.STLTRows = DefaultSTLTRows(c.Keys, c.STLTWays)
	}
	if c.SLBEntries == 0 {
		c.SLBEntries = 8 * c.STLTRows
	}
	return c, nil
}

// DefaultSTLTRows returns the scaled equivalent of the paper's default
// 512 MB STLT (3.2 rows per key), rounded so the set count is a power
// of two.
func DefaultSTLTRows(keys, ways int) int {
	target := float64(keys) * 3.2 / float64(ways)
	sets := 1
	for float64(sets) < target {
		sets <<= 1
	}
	return sets * ways
}

// PaperEquivalentMB converts an STLT row count at our key scale into
// the paper's table-size label at 10M keys:
// bytes(rows) * 10M / keys.
func PaperEquivalentMB(rows, keys int) float64 {
	return float64(rows) * core.RowSize * 1e7 / float64(keys) / (1 << 20)
}

// Stats aggregates an engine run.
type Stats struct {
	Ops      uint64
	Gets     uint64
	Sets     uint64
	Misses   uint64 // GETs for absent keys
	FastHits uint64 // ops satisfied by the STLT/SLB fast path
	Moves    uint64 // record relocations observed
	Scans    uint64 // SCAN/RANGE ordered iterations served
	Expired  uint64 // keys removed by lazy or sweep TTL expiry
	Evicted  uint64 // keys removed by maxmemory LFU eviction
	Machine  cpu.Stats
	STLT     core.Stats
	SLB      slb.Stats
}

// Add returns s + o, counter-wise — the merge used when aggregating
// per-shard engine stats into cluster totals. STLT and SLB counters
// add directly; machine counters merge via cpu.Stats.Add (which
// weights MeanDRAMLatency by access count).
func (s Stats) Add(o Stats) Stats {
	d := s
	d.Ops += o.Ops
	d.Gets += o.Gets
	d.Sets += o.Sets
	d.Misses += o.Misses
	d.FastHits += o.FastHits
	d.Moves += o.Moves
	d.Scans += o.Scans
	d.Expired += o.Expired
	d.Evicted += o.Evicted
	d.Machine = s.Machine.Add(o.Machine)
	d.STLT.Lookups += o.STLT.Lookups
	d.STLT.Hits += o.STLT.Hits
	d.STLT.IPBRejects += o.STLT.IPBRejects
	d.STLT.MultiMatch += o.STLT.MultiMatch
	d.STLT.Inserts += o.STLT.Inserts
	d.STLT.InsertDrops += o.STLT.InsertDrops
	d.STLT.Replaced += o.STLT.Replaced
	d.STLT.Scrubs += o.STLT.Scrubs
	d.STLT.FalseHits += o.STLT.FalseHits
	d.STLT.Invalidates += o.STLT.Invalidates
	d.SLB.Lookups += o.SLB.Lookups
	d.SLB.Hits += o.SLB.Hits
	d.SLB.FalseHits += o.SLB.FalseHits
	d.SLB.Inserts += o.SLB.Inserts
	d.SLB.Rejected += o.SLB.Rejected
	return d
}

// CyclesPerOp returns average cycles per operation.
func (s Stats) CyclesPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Machine.Cycles) / float64(s.Ops)
}

// Engine is a runnable simulated key-value store.
type Engine struct {
	Cfg Config
	M   *cpu.Machine
	OS  *core.OS
	Idx index.Index

	STLT    *core.STLT
	SLB     *slb.SLB
	Monitor *core.Monitor
	Tuner   *core.Tuner

	redis *redisLayer

	// tracer, when non-nil, samples the engine's own spans for ops
	// that arrive without an externally attached trace (standalone
	// engine use; the cluster/server attach their own spans instead).
	// traceCtr is the engine-local sampling counter: ops run under the
	// shard lock, so counting locally keeps the unsampled fast path off
	// the tracer's shared counter cache line.
	tracer      *trace.Tracer
	tracerShard int
	traceCtr    uint64

	ops, gets, sets, misses, fastHits, moves uint64
	scans, expired, evicted                  uint64
	keyBuf                                   [ycsb.KeyLen]byte

	// TTL state (expire.go): absolute deadlines in unix nanoseconds,
	// plus an insertion-ordered key list so the active sweep samples
	// deterministically. Empty maps cost nothing on the hot path —
	// every check is gated on len(expires) != 0 — so an engine that
	// never sees an EXPIRE behaves bit-for-bit like one built before
	// TTLs existed.
	expires   map[string]int64
	expOrder  []string
	expCursor int
	clock     func() int64

	// lfu is the maxmemory eviction state (nil when Cfg.MaxMemory == 0).
	lfu *lfuState

	// maint queues the untimed maintenance removals (lazy/sweep expiry,
	// LFU eviction) an op performed, for the owning shard to log to the
	// WAL in replay order. Drained via TakeMaint under the shard lock.
	maint []Maint

	// replay disables clock-driven expiry and maxmemory eviction while
	// recovery applies a log: removals replay from their own explicit
	// records instead, so a recovered engine cannot diverge from the
	// log that describes it.
	replay bool

	// scanKey/scanVal are reusable buffers for the scan read path.
	scanKey, scanVal []byte
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := cpu.New(cfg.Params)
	o := core.NewOS(m)
	e := &Engine{Cfg: cfg, M: m, OS: o}

	ictx := &index.Context{M: m, Hash: *cfg.SlowHash, Seed: cfg.Seed ^ 0x5107}
	switch cfg.Index {
	case KindChainHash:
		e.Idx = index.NewChainHash(ictx, cfg.Keys)
	case KindDenseHash:
		e.Idx = index.NewDenseHash(ictx, cfg.Keys)
	case KindRBTree:
		e.Idx = index.NewRBTree(ictx)
	case KindBTree:
		e.Idx = index.NewBTree(ictx)
	case KindSkipList:
		e.Idx = index.NewSkipList(ictx)
	default:
		return nil, fmt.Errorf("kv: unknown index kind %q", cfg.Index)
	}

	switch cfg.Mode {
	case ModeBaseline:
	case ModeSTLT, ModeSTLTSW, ModeSTLTVA:
		t, err := o.STLTAlloc(cfg.STLTRows, cfg.STLTWays)
		if err != nil {
			return nil, err
		}
		switch cfg.Mode {
		case ModeSTLTSW:
			t.Variant = core.VariantSoftware
		case ModeSTLTVA:
			t.Variant = core.VariantVAOnly
		}
		e.STLT = t
		if cfg.Monitor {
			e.Monitor = core.NewMonitor(t)
		}
		if cfg.AutoTune {
			e.Tuner = core.NewTuner(o)
		}
	case ModeSLB:
		e.SLB = slb.New(m, *cfg.FastHash, cfg.Seed^0xFA57, cfg.SLBEntries)
	default:
		return nil, fmt.Errorf("kv: unknown mode %q", cfg.Mode)
	}

	switch cfg.DataPrefetcher {
	case "", "none":
	case "stride":
		m.Caches.Prefetcher = cache.NewStridePrefetcher()
	case "vldp":
		m.Caches.Prefetcher = cache.NewVLDPPrefetcher()
	default:
		return nil, fmt.Errorf("kv: unknown data prefetcher %q", cfg.DataPrefetcher)
	}
	if cfg.TLBPrefetch {
		m.TLBPrefetcher = tlb.NewDistancePrefetcher()
	}

	if cfg.RedisLayer {
		e.redis = newRedisLayer(m)
	}
	if cfg.MaxMemory > 0 {
		e.lfu = newLFUState(cfg.Seed)
	}
	return e, nil
}

// HWHashLatency is the modeled latency of a hardware hash unit
// (pipelined; a couple of cycles to produce the integer).
const HWHashLatency arch.Cycles = 2

// fastHash computes the fast-path integer, charging its cost.
func (e *Engine) fastHash(key []byte) uint64 {
	if e.Cfg.FastHashHW {
		e.M.Compute(HWHashLatency, arch.CatHash)
	} else {
		e.M.Compute(e.Cfg.FastHash.Cost(len(key)), arch.CatHash)
	}
	return e.Cfg.FastHash.Hash(key, e.Cfg.Seed^0xFA57)
}

// Load bulk-inserts n keys with valueSize-byte values in Fast
// (functional-only) mode — the data-loading phase before warm-up.
func (e *Engine) Load(n int, valueSize int) {
	wasFast := e.M.Fast
	e.M.Fast = true
	for id := uint64(0); id < uint64(n); id++ {
		key := ycsb.KeyNameInto(e.keyBuf[:], id)
		val := ycsb.Value(id, 0, valueSize)
		e.Idx.Put(key, val)
		e.lfuAccount(key, val)
	}
	e.M.Fast = wasFast
}

// LoadOne inserts a single key/value pair in Fast (functional-only)
// mode — the per-key form of Load, used by cluster loaders that route
// a key space across several engines.
func (e *Engine) LoadOne(key, value []byte) {
	wasFast := e.M.Fast
	e.M.Fast = true
	e.Idx.Put(key, value)
	e.lfuAccount(key, value)
	e.M.Fast = wasFast
}

// Reset returns the engine to its just-built state: empty index, cold
// caches/TLBs/fast paths, zeroed statistics — a FLUSHALL without a
// process restart. The engine is rebuilt from its own Config, so a
// reset engine behaves bit-for-bit like a fresh one. Counters are
// zeroed (a fresh build carries table-allocation cycles; a FLUSHALL
// should not surface those as serving cost).
func (e *Engine) Reset() error {
	ne, err := New(e.Cfg)
	if err != nil {
		return err
	}
	ne.MarkMeasurement()
	tr, sh, clk := e.tracer, e.tracerShard, e.clock
	*e = *ne
	e.tracer, e.tracerShard, e.clock = tr, sh, clk
	return nil
}

// SetTracer installs a span tracer for the engine's own sampling; ops
// it begins are filed under ring shard (0 for a standalone engine).
func (e *Engine) SetTracer(t *trace.Tracer, shard int) {
	e.tracer, e.tracerShard = t, shard
}

// Tracer returns the engine's own tracer (nil when not set).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// AttachTrace points the machine's event hooks at an externally owned
// span (the cluster attaches the front-end's span under the shard
// lock). The caller must DetachTrace before releasing ownership.
func (e *Engine) AttachTrace(op *trace.Op) { e.M.Trace = op }

// DetachTrace disconnects the machine's event hooks.
func (e *Engine) DetachTrace() { e.M.Trace = nil }

// traceBegin starts an engine-owned span when the engine has its own
// tracer and no external span is attached; either way it stamps the
// engine.op timeline event on whatever span is live. Returns nil when
// this op does not own a span (unsampled, or externally traced).
func (e *Engine) traceBegin(name string, key []byte) *trace.Op {
	if e.M.Trace == nil && e.tracer != nil {
		every := e.tracer.Sample()
		if every == 0 {
			return nil
		}
		e.traceCtr++
		if e.traceCtr%every != 0 {
			return nil
		}
		op := e.tracer.BeginSampled(name, key)
		op.SetBase(uint64(e.M.Cycles()))
		e.M.Trace = op
		op.Event(trace.EvEngineOp, uint64(e.M.Cycles()), 0, 0, 0)
		return op
	}
	if e.M.Trace != nil {
		e.M.Trace.Event(trace.EvEngineOp, uint64(e.M.Cycles()), 0, 0, 0)
	}
	return nil
}

// traceEnd completes an engine-owned span from traceBegin (no-op for
// nil).
func (e *Engine) traceEnd(op *trace.Op, fastHit, missed bool) {
	if op == nil {
		return
	}
	e.M.Trace = nil
	op.End(uint64(e.M.Cycles()))
	e.tracer.Finish(op, e.tracerShard, fastHit, missed)
}

// Get performs a timed GET, returning the value.
func (e *Engine) Get(key []byte) ([]byte, bool) {
	sp := e.traceBegin("get", key)
	fh := e.fastHits
	va, ok := e.get(key)
	var val []byte
	if ok {
		val = index.ReadValue(e.M, va)
	}
	e.traceEnd(sp, e.fastHits > fh, !ok)
	return val, ok
}

// GetInto is Get with a caller-supplied value buffer: the value is
// written into buf[:0] (grown only when too small) and returned, so a
// steady-state caller reusing its buffer performs zero allocations.
// The timed reads are identical to Get — modeled cycles, stats and
// trace events match bit-for-bit.
func (e *Engine) GetInto(key, buf []byte) ([]byte, bool) {
	sp := e.traceBegin("get", key)
	fh := e.fastHits
	va, ok := e.get(key)
	var val []byte
	if ok {
		val = index.ReadValueInto(e.M, va, buf)
	}
	e.traceEnd(sp, e.fastHits > fh, !ok)
	return val, ok
}

// GetTouch performs a timed GET charging the value read without
// materializing it (the harness's hot loop).
func (e *Engine) GetTouch(key []byte) bool {
	sp := e.traceBegin("get", key)
	fh := e.fastHits
	va, ok := e.get(key)
	if ok {
		index.TouchValue(e.M, va)
	}
	e.traceEnd(sp, e.fastHits > fh, !ok)
	return ok
}

// get runs the mode-specific addressing path and returns the record VA.
func (e *Engine) get(key []byte) (arch.Addr, bool) {
	e.expireIfDue(key, false)
	if e.Monitor != nil {
		e.Monitor.BeginOp()
		defer e.Monitor.EndOp()
	}
	if e.Tuner != nil {
		e.Tuner.Tick()
	}
	e.ops++
	e.gets++
	if e.redis != nil {
		e.redis.command(key, len("GET"))
	}

	va, found := e.lookup(key)

	if !found {
		e.misses++
		if e.redis != nil {
			e.redis.reply(0)
		}
		return 0, false
	}
	e.lfuTouch(key)
	if e.redis != nil {
		e.redis.replyValue(e.M, va)
	}
	return va, true
}

// lookup runs the mode-specific addressing path (fast path plus slow
// path on a miss), charging all timing, without any command/reply
// modeling. It is shared by GET and EXISTS.
func (e *Engine) lookup(key []byte) (arch.Addr, bool) {
	var va arch.Addr
	found := false
	switch {
	case e.STLT != nil:
		integer := e.fastHash(key)
		if hit := e.STLT.LoadVA(integer); hit != 0 {
			if index.KeyMatches(e.M, hit, key, arch.CatData) {
				va, found = hit, true
				e.fastHits++
			} else {
				e.STLT.ReportFalseHit()
			}
		}
		if !found {
			va, found = e.idxGet(key)
			if found {
				e.STLT.InsertSTLT(integer, va)
			}
		}
	case e.SLB != nil:
		if hit, ok := e.SLB.Lookup(key); ok {
			if index.KeyMatches(e.M, hit, key, arch.CatData) {
				va, found = hit, true
				e.fastHits++
			} else {
				e.SLB.ReportFalseHit(key)
			}
		}
		if !found {
			va, found = e.idxGet(key)
			if found {
				e.SLB.OnMiss(key, va)
			}
		}
	default:
		va, found = e.idxGet(key)
	}
	if !found {
		return 0, false
	}
	return va, true
}

// idxGet is Idx.Get plus the index.walk timeline event.
func (e *Engine) idxGet(key []byte) (arch.Addr, bool) {
	va, found := e.Idx.Get(key)
	if e.M.Trace != nil {
		f := int64(0)
		if found {
			f = 1
		}
		e.M.Trace.Event(trace.EvIndexWalk, uint64(e.M.Cycles()), f, 0, 0)
	}
	return va, found
}

// Exists performs a timed existence check: the full addressing path
// (fast path, slow path, STLT refill) without the value read or the
// value-copy reply — the cheap path a Redis EXISTS takes.
func (e *Engine) Exists(key []byte) bool {
	sp := e.traceBegin("exists", key)
	e.expireIfDue(key, false)
	if e.Monitor != nil {
		e.Monitor.BeginOp()
		defer e.Monitor.EndOp()
	}
	if e.Tuner != nil {
		e.Tuner.Tick()
	}
	e.ops++
	e.gets++
	if e.redis != nil {
		e.redis.command(key, len("EXISTS"))
	}
	fh := e.fastHits
	_, found := e.lookup(key)
	if !found {
		e.misses++
	} else {
		e.lfuTouch(key)
	}
	if e.redis != nil {
		e.redis.reply(4) // ":1\r\n" / ":0\r\n"
	}
	e.traceEnd(sp, e.fastHits > fh, !found)
	return found
}

// Set performs a timed SET. Like Redis, SET discards any TTL armed on
// the key.
func (e *Engine) Set(key, value []byte) {
	sp := e.traceBegin("set", key)
	e.expireIfDue(key, false)
	if e.Monitor != nil {
		e.Monitor.BeginOp()
		defer e.Monitor.EndOp()
	}
	e.ops++
	e.sets++
	if e.redis != nil {
		e.redis.command(key, len("SET")+len(value))
	}
	res := e.Idx.Put(key, value)
	if e.M.Trace != nil {
		moved := int64(0)
		if res.Moved {
			moved = 1
		}
		e.M.Trace.Event(trace.EvIndexWalk, uint64(e.M.Cycles()), 1, moved, 0)
	}
	if res.Moved {
		e.moves++
		// Record-move protocol (Section III-F): refresh the STLT row
		// once the move finishes; drop stale SLB entries.
		if e.STLT != nil {
			e.STLT.InsertSTLT(e.fastHash(key), res.RecordVA)
		}
		if e.SLB != nil {
			e.SLB.Invalidate(key)
		}
	}
	if len(e.expires) != 0 {
		e.disarmDeadline(key)
	}
	e.lfuAccount(key, value)
	if e.redis != nil {
		e.redis.reply(5) // "+OK\r\n"
	}
	e.maybeEvict()
	e.traceEnd(sp, false, false)
}

// Delete removes a key, keeping the fast paths coherent.
func (e *Engine) Delete(key []byte) bool {
	sp := e.traceBegin("del", key)
	e.expireIfDue(key, false)
	e.ops++
	ok := e.Idx.Delete(key)
	if e.M.Trace != nil {
		f := int64(0)
		if ok {
			f = 1
		}
		e.M.Trace.Event(trace.EvIndexWalk, uint64(e.M.Cycles()), f, 0, 0)
	}
	if ok {
		// Deallocation-side coherence (Section III-F): drop the fast-path
		// entry so a dangling VA can never be returned. Software
		// validation is not enough on its own — the allocator's tagged
		// free-list link overwrites the freed record's header and its low
		// byte can alias a legal key length, letting a stale STLT row
		// validate against its own freed record.
		if e.STLT != nil {
			e.STLT.Invalidate(e.fastHash(key))
		}
		if e.SLB != nil {
			e.SLB.Invalidate(key)
		}
		if len(e.expires) != 0 {
			e.disarmDeadline(key)
		}
		e.lfuForget(key)
	}
	e.traceEnd(sp, false, !ok)
	return ok
}

// RunOp executes one generated workload operation. Scan ops on an
// unordered index are charged nothing (the error path never reaches
// the simulated machine) — harnesses validate index/workload pairing
// up front.
func (e *Engine) RunOp(op ycsb.Op, valueSize int) {
	key := ycsb.KeyNameInto(e.keyBuf[:], op.KeyID)
	switch op.Type {
	case ycsb.Get:
		e.GetTouch(key)
	case ycsb.Set, ycsb.Insert:
		e.Set(key, ycsb.Value(op.KeyID, 1, valueSize))
	case ycsb.Scan:
		_, _ = e.Scan(key, op.ScanLen, func([]byte) bool { return true })
	case ycsb.RMW:
		e.GetTouch(key)
		e.Set(key, ycsb.Value(op.KeyID, 2, valueSize))
	}
}

// OpProbe is a cheap snapshot of the counters a per-op observer diffs
// across one operation (telemetry). Taking it reads plain fields and
// charges no simulated cycles, so probed runs stay bit-for-bit
// identical to unprobed ones.
type OpProbe struct {
	Machine  cpu.Probe
	Ops      uint64
	FastHits uint64
	Misses   uint64
}

// Probe snapshots the observer counters.
func (e *Engine) Probe() OpProbe {
	return OpProbe{
		Machine:  e.M.Probe(),
		Ops:      e.ops,
		FastHits: e.fastHits,
		Misses:   e.misses,
	}
}

// MarkMeasurement resets all counters: everything before this call was
// warm-up.
func (e *Engine) MarkMeasurement() {
	e.M.ResetStats()
	e.ops, e.gets, e.sets, e.misses, e.fastHits, e.moves = 0, 0, 0, 0, 0, 0
	e.scans, e.expired, e.evicted = 0, 0, 0
	if e.STLT != nil {
		e.STLT.Stats = core.Stats{}
	}
	if e.SLB != nil {
		e.SLB.Stats = slb.Stats{}
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Ops:      e.ops,
		Gets:     e.gets,
		Sets:     e.sets,
		Misses:   e.misses,
		FastHits: e.fastHits,
		Moves:    e.moves,
		Scans:    e.scans,
		Expired:  e.expired,
		Evicted:  e.evicted,
		Machine:  e.M.Stats(),
	}
	if e.STLT != nil {
		s.STLT = e.STLT.Stats
	}
	if e.SLB != nil {
		s.SLB = e.SLB.Stats
	}
	return s
}

// RangeRecords enumerates every stored key/value pair functionally —
// straight address-space reads, no timed accesses, no counter changes —
// so maintenance paths (durability snapshots, integrity checks) can
// observe the store without perturbing modeled timing. The slices
// passed to fn alias internal buffers reused across calls; fn must copy
// anything it keeps. Iteration order is a deterministic function of the
// index's in-memory layout but otherwise unspecified.
func (e *Engine) RangeRecords(fn func(key, value []byte) bool) {
	var kbuf, vbuf []byte
	e.Idx.Range(func(rec arch.Addr) bool {
		k, v := index.RecordKV(e.M.AS, rec, kbuf, vbuf)
		kbuf, vbuf = k, v
		return fn(k, v)
	})
}

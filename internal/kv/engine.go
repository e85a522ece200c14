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

	// STLT and SLB are the fast path's concrete handles, for callers
	// that inspect it; the engine itself goes through fast.
	STLT *core.STLT
	SLB  *slb.SLB

	fast  fastPath // nil in baseline mode
	redis *redisLayer

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
		e.fast = &stltPath{t: t, m: m, hash: *cfg.FastHash, seed: cfg.Seed ^ 0xFA57, hw: cfg.FastHashHW}
	case ModeSLB:
		e.SLB = slb.New(m, *cfg.FastHash, cfg.Seed^0xFA57, cfg.SLBEntries)
		e.fast = slbPath{e.SLB}
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

// Load bulk-inserts n keys with valueSize-byte values in Fast
// (functional-only) mode — the data-loading phase before warm-up.
func (e *Engine) Load(n int, valueSize int) {
	val := make([]byte, valueSize)
	for id := uint64(0); id < uint64(n); id++ {
		e.LoadOne(ycsb.KeyNameInto(e.keyBuf[:], id), ycsb.ValueInto(val, id, 0))
	}
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
	clk := e.clock
	*e = *ne
	e.clock = clk
	return nil
}

// AttachTrace points the machine's event hooks at an externally owned
// span (the cluster attaches the front-end's span under the shard
// lock). The caller must DetachTrace before releasing ownership.
func (e *Engine) AttachTrace(op *trace.Op) { e.M.Trace = op }

// DetachTrace disconnects the machine's event hooks.
func (e *Engine) DetachTrace() { e.M.Trace = nil }

// stampOp stamps engine.op, entry into an op body, on the attached
// span. The engine never begins a span of its own.
func (e *Engine) stampOp() {
	if e.M.Trace != nil {
		e.M.Trace.Event(trace.EvEngineOp, uint64(e.M.Cycles()), 0, 0, 0)
	}
}

// GetInto performs a timed GET with a caller-supplied value buffer: the
// value is written into buf[:0] (grown only when too small) and
// returned, so a steady-state caller reusing its buffer performs zero
// allocations.
func (e *Engine) GetInto(key, buf []byte) ([]byte, bool) {
	e.stampOp()
	va, ok := e.get(key)
	var val []byte
	if ok {
		val = index.ReadValueInto(e.M, va, buf)
	}
	return val, ok
}

// GetTouch performs a timed GET charging the value read without
// materializing it (the harness's hot loop).
func (e *Engine) GetTouch(key []byte) bool {
	e.stampOp()
	va, ok := e.get(key)
	if ok {
		index.TouchValue(e.M, va)
	}
	return ok
}

// get is GET's share of the keyed-read frame: the read and its reply.
// The caller reads the value.
func (e *Engine) get(key []byte) (arch.Addr, bool) {
	va, found := e.read(key, len("GET"))
	if found {
		e.redis.replyValue(e.M, va)
	} else {
		e.redis.reply(0)
	}
	return va, found
}

// read is the front half of every keyed read (GET, EXISTS, EXPIRE,
// TTL): lazy expiry, the op counters and the Redis command model, then
// the addressing path and the miss count or LFU touch. The verb models
// its own reply.
func (e *Engine) read(key []byte, cmdBytes int) (arch.Addr, bool) {
	e.expireIfDue(key, false)
	e.ops++
	e.gets++
	e.redis.command(key, cmdBytes)
	va, found := e.lookup(key)
	if found {
		e.lfuTouch(key)
	} else {
		e.misses++
	}
	return va, found
}

// lookup runs the addressing path, charging all its timing: the fast
// path's probe and the validation of its VA, then on a miss the index
// walk and the fast path's fill.
func (e *Engine) lookup(key []byte) (arch.Addr, bool) {
	if e.fast == nil {
		return e.idxGet(key)
	}
	hit, h := e.fast.probe(key)
	if hit != 0 {
		if index.KeyMatches(e.M, hit, key, arch.CatData) {
			e.fastHits++
			return hit, true
		}
		e.fast.falseHit(key)
	}
	va, found := e.idxGet(key)
	if found {
		e.fast.fill(key, h, va)
	}
	return va, found
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
	e.stampOp()
	_, found := e.read(key, len("EXISTS"))
	e.redis.reply(4) // ":1\r\n" / ":0\r\n"
	return found
}

// Set performs a timed SET. Like Redis, SET discards any TTL armed on
// the key.
func (e *Engine) Set(key, value []byte) {
	e.stampOp()
	e.expireIfDue(key, false)
	e.ops++
	e.sets++
	e.redis.command(key, len("SET")+len(value))
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
		// Record-move protocol (Section III-F): the fast path refreshes
		// its entry once the move finishes.
		if e.fast != nil {
			e.fast.moved(key, res.RecordVA)
		}
	}
	if len(e.expires) != 0 {
		e.disarmDeadline(key)
	}
	e.lfuAccount(key, value)
	e.redis.reply(5) // "+OK\r\n"
	e.maybeEvict()
}

// Delete removes a key, keeping the fast paths coherent.
func (e *Engine) Delete(key []byte) bool {
	e.stampOp()
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
		e.forget(key)
	}
	return ok
}

// forget is what every removal does once the index has let go of key,
// Delete's and RemoveOne's alike (expiry, eviction and migration use the
// latter). Deallocation-side coherence (Section III-F): the fast path
// drops its entry so a dangling VA can never be returned. Software
// validation is not enough on its own — the allocator's tagged
// free-list link overwrites the freed record's header and its low byte
// can alias a legal key length, letting a stale entry validate against
// its own freed record. The key's deadline and LFU state go with it.
func (e *Engine) forget(key []byte) {
	if e.fast != nil {
		e.fast.forget(key)
	}
	if len(e.expires) != 0 {
		e.disarmDeadline(key)
	}
	e.lfuForget(key)
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
	if e.fast != nil {
		e.fast.resetStats()
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
	if e.fast != nil {
		e.fast.stats(&s)
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

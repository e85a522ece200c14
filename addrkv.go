// Package addrkv is a library-level reproduction of "Hardware-Based
// Address-Centric Acceleration of Key-Value Store" (HPCA 2021): the
// STLT/STB/IPB hardware design, its OS support, the SLB software
// baseline, four production-style indexing structures, and the YCSB
// workloads — all running on a timing-accurate simulated memory system
// (TLBs, three cache levels, radix page tables, DRAM) implemented in
// pure Go.
//
// The top-level API builds a simulated key-value System in one of
// several acceleration modes and runs real GET/SET traffic through it,
// reporting cycle-accurate statistics:
//
//	sys, err := addrkv.New(addrkv.Options{
//		Keys:  200_000,
//		Index: addrkv.IndexChainHash,
//		Mode:  addrkv.ModeSTLT,
//	})
//	...
//	sys.Load(200_000, 64)
//	rep := sys.RunWorkload(addrkv.Workload{
//		Distribution: addrkv.DistZipf, ValueSize: 64,
//		WarmOps: 400_000, MeasureOps: 64_000,
//	})
//	fmt.Println(rep.CyclesPerOp)
//
// To reproduce the paper's tables and figures, use cmd/stltbench or
// the benchmarks in bench_test.go.
package addrkv

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/core"
	"addrkv/internal/hashfn"
	"addrkv/internal/kv"
	"addrkv/internal/shard"
	"addrkv/internal/ycsb"
)

// Mode selects the acceleration configuration of a System.
type Mode = kv.Mode

// Acceleration modes. ModeSTLTSW and ModeSTLTVA are the ablations of
// the paper's Figure 19.
const (
	ModeBaseline = kv.ModeBaseline
	ModeSTLT     = kv.ModeSTLT
	ModeSLB      = kv.ModeSLB
	ModeSTLTSW   = kv.ModeSTLTSW
	ModeSTLTVA   = kv.ModeSTLTVA
)

// IndexKind selects the indexing structure of a System.
type IndexKind = kv.IndexKind

// Index kinds (Table II of the paper).
const (
	IndexChainHash = kv.KindChainHash // Redis-dict-style chained hash
	IndexDenseHash = kv.KindDenseHash // dense_hash_map-style open addressing
	IndexRBTree    = kv.KindRBTree    // std::map-style red-black tree
	IndexBTree     = kv.KindBTree     // cpp-btree-style B-tree
)

// Distribution selects a workload request distribution.
type Distribution = ycsb.Distribution

// Distributions for RunWorkload.
const (
	DistZipf    = ycsb.Zipf
	DistLatest  = ycsb.Latest
	DistUniform = ycsb.Uniform
)

// Options configures a System. Zero values pick the paper's defaults.
type Options struct {
	// Keys is the expected number of distinct keys across the whole
	// system (sizes the indexes and the default STLTs). Required.
	Keys int
	// Shards is the number of independent simulated machines the key
	// space is hashed across (default 1, the paper's single-core
	// setup). Each shard gets its own caches, TLBs, STB/IPB, and an
	// STLT sized at Keys/Shards; different shards can be driven from
	// concurrent goroutines.
	Shards int
	// Index picks the indexing structure (default IndexChainHash).
	Index IndexKind
	// Mode picks the acceleration (default ModeBaseline).
	Mode Mode
	// RedisLayer adds the modeled Redis command-processing costs.
	RedisLayer bool
	// STLTRows / STLTWays size the STLT (defaults: the scaled
	// equivalent of the paper's 512 MB table, 4-way).
	STLTRows int
	STLTWays int
	// SLBEntries sizes the SLB cache table (default: the paper's
	// Figure 11 setup).
	SLBEntries int
	// FastHashName picks the STLT/SLB fast-path hash from Table IV:
	// "sipHash", "murmurHash", "xxh64", "djb2", "xxh3" (default).
	FastHashName string
	// SlowHashName overrides the index's own hash function (defaults:
	// sipHash with RedisLayer, murmurHash otherwise).
	SlowHashName string
	// EnableMonitor turns on the runtime performance monitor
	// (Section III-F "Performance guarantee").
	EnableMonitor bool
	// AutoTune turns on the miss-ratio-driven STLT resizer
	// (Section III-F performance tuning).
	AutoTune bool
	// DataPrefetcher: "", "stride", or "vldp" (Section IV-F).
	DataPrefetcher string
	// TLBPrefetch enables distance TLB prefetching (Section IV-F).
	TLBPrefetch bool
	// MachineParams overrides the simulated architecture (defaults to
	// Table III via arch.DefaultMachineParams).
	MachineParams *arch.MachineParams
	// MaxMemory, when positive, caps the PER-SHARD record bytes: once a
	// SET pushes a shard past the cap, keys are evicted by the STLT's
	// in-set LFU rule (4-bit probabilistic counters, first-minimum
	// victim) until it fits. 0 disables eviction.
	MaxMemory int64
	// Seed makes runs deterministic (default 42).
	Seed uint64
}

// System is a simulated key-value store instance: a shard.Cluster of
// one or more simulated machines. All data-path methods are safe for
// concurrent use; operations on different shards proceed in parallel.
type System struct {
	c *shard.Cluster
}

// New builds a System.
func New(o Options) (*System, error) {
	cfg := kv.Config{
		Keys:           o.Keys,
		Index:          o.Index,
		Mode:           o.Mode,
		RedisLayer:     o.RedisLayer,
		STLTRows:       o.STLTRows,
		STLTWays:       o.STLTWays,
		SLBEntries:     o.SLBEntries,
		Monitor:        o.EnableMonitor,
		AutoTune:       o.AutoTune,
		DataPrefetcher: o.DataPrefetcher,
		TLBPrefetch:    o.TLBPrefetch,
		MaxMemory:      o.MaxMemory,
		Seed:           o.Seed,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if o.MachineParams != nil {
		cfg.Params = *o.MachineParams
	}
	if o.FastHashName != "" {
		f, err := hashfn.ByName(o.FastHashName)
		if err != nil {
			return nil, err
		}
		cfg.FastHash = &f
	}
	if o.SlowHashName != "" {
		f, err := hashfn.ByName(o.SlowHashName)
		if err != nil {
			return nil, err
		}
		cfg.SlowHash = &f
	}
	c, err := shard.New(shard.Config{Shards: o.Shards, Engine: cfg})
	if err != nil {
		return nil, err
	}
	return &System{c: c}, nil
}

// Load bulk-inserts n sequential YCSB keys with valueSize-byte values
// (the fast, untimed population phase), each routed to its home shard.
func (s *System) Load(n, valueSize int) { s.c.Load(n, valueSize) }

// Get retrieves a key with full timing, returning its value.
func (s *System) Get(key []byte) ([]byte, bool) { return s.c.Get(key) }

// GetTouch performs a timed GET charging the value read without
// materializing it (the hot loop of replayers and benchmarks).
func (s *System) GetTouch(key []byte) bool { return s.c.GetTouch(key) }

// Set inserts or updates a key with full timing.
func (s *System) Set(key, value []byte) { s.c.Set(key, value) }

// Delete removes a key with full timing.
func (s *System) Delete(key []byte) bool { return s.c.Delete(key) }

// Exists performs a timed existence-only check: the addressing path
// without the value read or value reply.
func (s *System) Exists(key []byte) bool { return s.c.Exists(key) }

// OpOutcome is the per-operation telemetry report a shard.Req carries
// (Cluster().Do, DoBatch, Enqueue): home shard, modeled cycle cost,
// and how the addressing path resolved. Filling it reads counters only
// — observed runs stay bit-for-bit identical to unobserved ones.
type OpOutcome = shard.OpOutcome

// ErrUnordered reports a SCAN/RANGE against a hash index (no key
// order to iterate); the server surfaces it as a typed RESP error.
var ErrUnordered = kv.ErrUnordered

// ErrBadCursor reports a malformed SCAN cursor.
var ErrBadCursor = kv.ErrBadCursor

// ParseCursor decodes a SCAN cursor: "0" starts a walk, "k"+hex resumes
// strictly after the encoded key. See AppendCursor for the encoder.
func ParseCursor(cur, buf []byte) (after []byte, resume bool, err error) {
	return kv.ParseCursor(cur, buf)
}

// AppendCursor appends the continuation cursor for a scan page that
// last emitted key, reusing dst's capacity.
func AppendCursor(dst, key []byte) []byte { return kv.AppendCursor(dst, key) }

// ScanStart converts a parsed cursor into the inclusive Scan start key
// (strictly after the cursor's key), appended into buf's capacity.
func ScanStart(after []byte, resume bool, buf []byte) []byte {
	return kv.ScanStart(after, resume, buf)
}

// MatchGlob reports whether key matches the Redis-style glob pattern
// (`*`, `?`, `[a-c]`/`[^...]` classes, `\` escapes), byte-wise. SCAN
// MATCH applies it server-side after cursor decode.
func MatchGlob(pattern, key []byte) bool { return kv.MatchGlob(pattern, key) }

// Ordered reports whether the configured index supports SCAN/RANGE
// (rbtree and btree do; the hash indexes do not).
func (s *System) Ordered() bool { return s.c.Ordered() }

// Scan visits up to limit stored keys >= start in ascending order with
// full timing (limit <= 0 = unbounded), calling fn with a copy of each
// key. Returns keys emitted, or ErrUnordered for a hash index.
func (s *System) Scan(start []byte, limit int, fn func(key []byte) bool) (int, error) {
	return s.c.Scan(start, limit, fn)
}

// ScanO is Scan reporting one OpOutcome per shard walk, appended to
// *out (out may be nil).
func (s *System) ScanO(start []byte, limit int, fn func(key []byte) bool, out *[]OpOutcome) (int, error) {
	return s.c.ScanO(start, limit, fn, out)
}

// RangeO visits up to limit stored pairs with start <= key <= end in
// ascending key order with full timing (end nil = unbounded), reporting
// one OpOutcome per shard walk, appended to *out (out may be nil).
// Returns pairs emitted, or ErrUnordered for a hash index.
func (s *System) RangeO(start, end []byte, limit int, fn func(key, value []byte) bool, out *[]OpOutcome) (int, error) {
	return s.c.RangeO(start, end, limit, fn, out)
}

// ExpireAt arms an absolute TTL deadline (unix ns) on a key with full
// timing, returning 1 when armed and 0 when the key is absent. Expired
// keys are reaped lazily on access plus by the active sweep; recovery
// replays both the arm and the reap, so TTL state survives restarts.
func (s *System) ExpireAt(key []byte, deadline int64) int { return s.c.ExpireAt(key, deadline) }

// TTL reports a key's remaining TTL in nanoseconds with full timing
// (-2 absent, -1 present without deadline).
func (s *System) TTL(key []byte) int64 { return s.c.TTL(key) }

// Now reads the TTL clock (shard 0's time source) — the base servers
// use to turn relative EXPIRE/PEXPIRE into absolute deadlines.
func (s *System) Now() int64 { return s.c.Now() }

// SetClock installs a deterministic TTL time source on every shard
// (tests, differential harnesses); nil restores real time.
func (s *System) SetClock(fn func() int64) { s.c.SetClock(fn) }

// SweepExpired runs one active-expiry cycle over every shard, sampling
// up to limit armed deadlines per shard; returns keys reaped. Servers
// call this off a ticker, so idle shards reap too; the worker runtime
// also sweeps off its own drain loop.
func (s *System) SweepExpired(limit int) int { return s.c.SweepExpired(limit) }

// UsedBytes reports the record bytes tracked by the eviction policy (0
// unless MaxMemory is set).
func (s *System) UsedBytes() int64 { return s.c.UsedBytes() }

// ExpiresArmed reports how many keys currently carry a TTL deadline.
func (s *System) ExpiresArmed() int { return s.c.ExpiresArmed() }

// Len returns the number of stored keys across all shards.
func (s *System) Len() int { return s.c.Len() }

// MarkMeasurement resets all counters on every shard: everything
// before this call was warm-up.
func (s *System) MarkMeasurement() { s.c.MarkMeasurement() }

// Reset returns the system to its just-built state (FLUSHALL): empty
// indexes, cold caches and fast paths, zeroed statistics.
func (s *System) Reset() error { return s.c.Reset() }

// KeyName returns the canonical YCSB key for a key id, as used by Load.
func KeyName(id uint64) []byte { return ycsb.KeyName(id) }

// Engine exposes shard 0's engine for advanced use (experiment
// harnesses, tests). It bypasses the shard locks: single-goroutine
// use only, and with Shards > 1 it sees only part of the key space —
// prefer the System methods or Cluster.
func (s *System) Engine() *kv.Engine { return s.c.Engine(0) }

// Cluster exposes the underlying shard cluster (routing inspection,
// per-shard stats).
func (s *System) Cluster() *shard.Cluster { return s.c }

// Workload shapes a RunWorkload call.
type Workload struct {
	// Distribution is DistZipf, DistLatest or DistUniform.
	Distribution ycsb.Distribution
	// ValueSize is the value payload in bytes (default 64).
	ValueSize int
	// WarmOps run before counters reset; MeasureOps are measured.
	WarmOps    int
	MeasureOps int
	// SetFraction, when positive, overrides the paper's rule
	// (5% SETs for latest, all-GET otherwise).
	SetFraction float64
	// Seed makes the stream deterministic (default 42).
	Seed uint64
}

// Report summarizes a measured workload window.
type Report struct {
	Ops         uint64
	Cycles      uint64
	CyclesPerOp float64
	// TLBMissesPerOp counts full TLB misses per operation.
	TLBMissesPerOp float64
	// PageWalksPerOp counts completed page walks per operation.
	PageWalksPerOp float64
	// CacheMissesPerOp counts LLC misses (DRAM demand) per operation.
	CacheMissesPerOp float64
	// FastPathHitRate is the fraction of GETs served by the STLT/SLB.
	FastPathHitRate float64
	// TableMissRate is the STLT (or SLB) table miss ratio.
	TableMissRate float64
	// Scans counts SCAN/RANGE ops, Expired TTL reaps, and Evicted
	// maxmemory evictions inside the measured window.
	Scans   uint64
	Expired uint64
	Evicted uint64
	// CategoryShare maps cost-category names ("hash", "traverse",
	// "translate", "data", "stlt", "other") to their fraction of total
	// cycles — the Figure 1 breakdown for this run.
	CategoryShare map[string]float64
	// Raw engine statistics for detailed analysis. With Shards > 1
	// this is the counter-wise aggregate over shards; Cycles is then
	// the summed per-core service time, not elapsed time.
	Stats kv.Stats
	// Shards is the number of simulated machines behind this report.
	Shards int
	// MaxShardCycles is the busiest shard's cycle count — the modeled
	// wall-clock bound of the window (the slowest core finishes last).
	// Equal to Cycles when Shards == 1.
	MaxShardCycles uint64
	// PerShard holds each shard's own statistics.
	PerShard []kv.Stats
}

// ModeledThroughput returns operations per modeled wall-clock cycle
// (Ops / MaxShardCycles); ratios of this across shard counts give the
// modeled scaling curve.
func (r Report) ModeledThroughput() float64 {
	if r.MaxShardCycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.MaxShardCycles)
}

// RunWorkload drives a generated workload through the system: WarmOps
// operations to warm caches/TLBs/tables, a counter reset, then
// MeasureOps measured operations (the paper's 80%-warm-up
// methodology).
func (s *System) RunWorkload(w Workload) Report {
	if w.ValueSize == 0 {
		w.ValueSize = 64
	}
	if w.Distribution == "" {
		w.Distribution = DistZipf
	}
	seed := w.Seed
	if seed == 0 {
		seed = 42
	}
	cfg := ycsb.Config{
		Keys:      s.c.Len(),
		ValueSize: w.ValueSize,
		Dist:      w.Distribution,
		Seed:      seed,
	}
	if w.SetFraction > 0 {
		cfg.SetFraction = w.SetFraction
	} else {
		cfg = cfg.WithPaperSetFraction()
	}
	g := ycsb.NewGenerator(cfg)
	for i := 0; i < w.WarmOps; i++ {
		s.c.RunOp(g.Next(), w.ValueSize)
	}
	s.c.MarkMeasurement()
	for i := 0; i < w.MeasureOps; i++ {
		s.c.RunOp(g.Next(), w.ValueSize)
	}
	return s.Report()
}

// Report snapshots statistics since the last measurement mark,
// merged across shards.
func (s *System) Report() Report {
	cs := s.c.Stats()
	st := cs.Agg
	r := Report{
		Ops:            st.Ops,
		Cycles:         uint64(st.Machine.Cycles),
		Scans:          st.Scans,
		Expired:        st.Expired,
		Evicted:        st.Evicted,
		Stats:          st,
		Shards:         s.c.NumShards(),
		MaxShardCycles: cs.MaxShardCycles,
		PerShard:       cs.PerShard,
	}
	if st.Ops > 0 {
		ops := float64(st.Ops)
		r.CyclesPerOp = float64(st.Machine.Cycles) / ops
		r.TLBMissesPerOp = float64(st.Machine.TLBMisses) / ops
		r.PageWalksPerOp = float64(st.Machine.PageWalks) / ops
		r.CacheMissesPerOp = float64(st.Machine.DRAMDemand) / ops
	}
	if st.Gets > 0 {
		r.FastPathHitRate = float64(st.FastHits) / float64(st.Gets)
	}
	switch {
	case st.STLT.Lookups > 0:
		r.TableMissRate = st.STLT.MissRate()
	case st.SLB.Lookups > 0:
		r.TableMissRate = st.SLB.MissRate()
	}
	if st.Machine.Cycles > 0 {
		r.CategoryShare = map[string]float64{}
		total := float64(st.Machine.Cycles)
		for c := 0; c < arch.NumCostCategories; c++ {
			r.CategoryShare[arch.CostCategory(c).String()] =
				float64(st.Machine.ByCat[c]) / total
		}
	}
	return r
}

// HardwareCost returns the on-chip storage budget of the STLT design
// (Table I of the paper) as (rows, totalBits).
func HardwareCost() ([]core.HWComponentCost, int) {
	return core.HWCost(), core.HWCostTotalBits()
}

// PaperEquivalentMB converts an STLT row count at a given key scale to
// the table-size label the paper would use at its 10-million-key
// scale.
func PaperEquivalentMB(rows, keys int) float64 {
	return kv.PaperEquivalentMB(rows, keys)
}

// String renders a Report compactly.
func (r Report) String() string {
	return fmt.Sprintf("ops=%d cycles/op=%.0f tlbMiss/op=%.2f walks/op=%.2f llcMiss/op=%.2f fastHit=%.1f%% tableMiss=%.2f%%",
		r.Ops, r.CyclesPerOp, r.TLBMissesPerOp, r.PageWalksPerOp, r.CacheMissesPerOp,
		100*r.FastPathHitRate, 100*r.TableMissRate)
}

package harness

import (
	"fmt"
	"sync"

	"addrkv/internal/arch"
	"addrkv/internal/hashfn"
	"addrkv/internal/kv"
	"addrkv/internal/telemetry"
	"addrkv/internal/ycsb"
)

// Scale sets the experiment size. The paper runs 10M keys with 100M
// accesses (80% warm-up) on SniperSim; the default here is a reduced
// scale whose STLT/SLB sizes are scaled proportionally, with the
// paper-equivalent MB labels reported (see DESIGN.md "Substitutions").
type Scale struct {
	// Keys is the number of distinct keys.
	Keys int
	// WarmFactor: warm-up operations = WarmFactor * Keys.
	WarmFactor float64
	// MeasureOps is the measured operation count (the paper measures
	// 128K accesses after warm-up).
	MeasureOps int
	// Quick trims sweep experiments (fewer sizes/apps) so the whole
	// suite fits in a benchmark run.
	Quick bool
	// Verbose enables per-run progress lines to stderr.
	Verbose bool
}

// DefaultScale is used by cmd/stltbench: large enough that the working
// set dwarfs the 2 MB L3 and the 6 MB TLB reach, as in the paper.
func DefaultScale() Scale {
	return Scale{Keys: 400_000, WarmFactor: 3, MeasureOps: 64_000}
}

// BenchScale is used by the Go benchmarks: smaller, so the full suite
// finishes in minutes. Shape targets still hold, with slightly
// compressed speedup factors (see EXPERIMENTS.md).
func BenchScale() Scale {
	return Scale{Keys: 120_000, WarmFactor: 3, MeasureOps: 32_000, Quick: true}
}

func (s Scale) warmOps() int { return int(s.WarmFactor * float64(s.Keys)) }

// spec fully describes one simulation run.
type spec struct {
	keys       int
	valueSize  int
	dist       ycsb.Distribution
	mode       kv.Mode
	index      kv.IndexKind
	redis      bool
	stltRows   int
	stltWays   int
	slbEntries int
	fastHash   string
	hwHash     bool
	prefetch   string
	tlbPf      bool
	hugeTLB    bool // emulate 2MB-page reach (extension experiment)
	warmOps    int
	measureOps int
}

// result is the measured outcome of a run.
type result struct {
	Stats kv.Stats
	CPO   float64
}

// runCache memoizes runs within a harness process so experiments that
// share configurations (fig14/15/16; fig11/12/tab5) do not re-simulate.
var (
	runCacheMu sync.Mutex
	runCache   = map[string]result{}
)

func (sp spec) key() string {
	return fmt.Sprintf("%d/%d/%s/%s/%s/%v/%d/%d/%d/%s/%v/%s/%v/%v/%d/%d",
		sp.keys, sp.valueSize, sp.dist, sp.mode, sp.index, sp.redis,
		sp.stltRows, sp.stltWays, sp.slbEntries, sp.fastHash, sp.hwHash,
		sp.prefetch, sp.tlbPf, sp.hugeTLB, sp.warmOps, sp.measureOps)
}

// ResetCache drops all memoized results (tests).
func ResetCache() {
	runCacheMu.Lock()
	defer runCacheMu.Unlock()
	runCache = map[string]result{}
}

// recorder, when set, receives one RunRecord per run() call — fired on
// cache hits too, so the record stream mirrors the experiment's
// logical run sequence rather than the memoizer's behavior.
var (
	recorderMu sync.Mutex
	recorder   func(telemetry.RunRecord)
)

// SetRecorder installs (nil: removes) a hook observing every run.
// stltbench uses it to assemble BENCH_<exp>.json artifacts. The hook
// only reads finished results, so recorded runs stay bit-for-bit
// identical to unrecorded ones.
func SetRecorder(f func(telemetry.RunRecord)) {
	recorderMu.Lock()
	recorder = f
	recorderMu.Unlock()
}

func record(spec string, r result) {
	recorderMu.Lock()
	f := recorder
	recorderMu.Unlock()
	if f != nil {
		f(recordOf(spec, r))
	}
}

// recordOf converts a run result to its JSON record.
func recordOf(spec string, r result) telemetry.RunRecord {
	st := r.Stats
	rec := telemetry.RunRecord{
		Spec:         spec,
		Ops:          st.Ops,
		Cycles:       uint64(st.Machine.Cycles),
		CyclesPerOp:  r.CPO,
		FastPathHits: st.FastHits,
	}
	switch {
	case st.STLT.Lookups > 0:
		rec.TableMissRate = st.STLT.MissRate()
	case st.SLB.Lookups > 0:
		rec.TableMissRate = st.SLB.MissRate()
	}
	if st.Ops > 0 {
		ops := float64(st.Ops)
		rec.TLBMissesPerOp = float64(st.Machine.TLBMisses) / ops
		rec.PageWalksPerOp = float64(st.Machine.PageWalks) / ops
		rec.LLCMissesPerOp = float64(st.Machine.DRAMDemand) / ops
	}
	return rec
}

// run executes (or recalls) a simulation run.
func run(sc Scale, sp spec) result {
	if sp.keys == 0 {
		sp.keys = sc.Keys
	}
	if sp.valueSize == 0 {
		sp.valueSize = 64
	}
	if sp.dist == "" {
		sp.dist = ycsb.Zipf
	}
	if sp.warmOps == 0 {
		sp.warmOps = sc.warmOps()
	}
	if sp.measureOps == 0 {
		sp.measureOps = sc.MeasureOps
	}
	k := sp.key()
	runCacheMu.Lock()
	if r, ok := runCache[k]; ok {
		runCacheMu.Unlock()
		record(k, r)
		return r
	}
	runCacheMu.Unlock()

	if sc.Verbose {
		fmt.Printf("  [run] %s\n", k)
	}

	st := simulate(sp).Stats()
	r := result{Stats: st, CPO: st.CyclesPerOp()}

	runCacheMu.Lock()
	runCache[k] = r
	runCacheMu.Unlock()
	record(k, r)
	return r
}

// simulate builds, loads, warms and measures one fully specified run
// and returns the engine, so a caller can read more than kv.Stats.
func simulate(sp spec) *kv.Engine {
	cfg := kv.Config{
		Keys:           sp.keys,
		Index:          sp.index,
		Mode:           sp.mode,
		RedisLayer:     sp.redis,
		STLTRows:       sp.stltRows,
		STLTWays:       sp.stltWays,
		SLBEntries:     sp.slbEntries,
		FastHashHW:     sp.hwHash,
		DataPrefetcher: sp.prefetch,
		TLBPrefetch:    sp.tlbPf,
		Seed:           42,
	}
	if sp.hugeTLB {
		// Emulate 2MB pages: each TLB entry covers 512x the reach,
		// modeled as 512x the entries at unchanged latency.
		p := arch.DefaultMachineParams()
		p.L1TLBEntries *= 512
		p.L2TLBEntries *= 512
		cfg.Params = p
	}
	if sp.fastHash != "" {
		f, err := hashfn.ByName(sp.fastHash)
		if err != nil {
			panic(err)
		}
		cfg.FastHash = &f
	}
	e, err := kv.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	e.Load(sp.keys, sp.valueSize)

	wc := ycsb.Config{
		Keys:      sp.keys,
		ValueSize: sp.valueSize,
		Dist:      sp.dist,
		Seed:      42,
	}.WithPaperSetFraction()
	g := ycsb.NewGenerator(wc)
	for i := 0; i < sp.warmOps; i++ {
		e.RunOp(g.Next(), sp.valueSize)
	}
	e.MarkMeasurement()
	for i := 0; i < sp.measureOps; i++ {
		e.RunOp(g.Next(), sp.valueSize)
	}
	return e
}

// speedup is baselineCPO / modeCPO.
func speedup(base, mode result) float64 {
	if mode.CPO == 0 {
		return 0
	}
	return base.CPO / mode.CPO
}

// reduction returns the fractional reduction (positive = fewer) of a
// per-op counter from base to mode.
func reduction(basePerOp, modePerOp float64) float64 {
	if basePerOp == 0 {
		return 0
	}
	return (basePerOp - modePerOp) / basePerOp
}

func perOp(count uint64, st kv.Stats) float64 {
	if st.Ops == 0 {
		return 0
	}
	return float64(count) / float64(st.Ops)
}

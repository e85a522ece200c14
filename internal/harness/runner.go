package harness

import (
	"fmt"
	"sync"

	"addrkv/internal/arch"
	"addrkv/internal/hashfn"
	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

// Scale sets the experiment size. The paper runs 10M keys with 100M
// accesses (80% warm-up) on SniperSim; each experiment here declares a
// reduced scale whose STLT/SLB sizes are scaled proportionally, with
// the paper-equivalent MB labels reported (see DESIGN.md
// "Substitutions").
type Scale struct {
	// Keys is the number of distinct keys.
	Keys int
	// WarmFactor: warm-up operations = WarmFactor * Keys.
	WarmFactor float64
	// MeasureOps is the measured operation count (the paper measures
	// 128K accesses after warm-up).
	MeasureOps int
	// Quick trims sweep experiments (fewer sizes/apps).
	Quick bool
	// Verbose enables per-run progress lines to stderr.
	Verbose bool
}

// The scales of the committed results/ CSVs: each experiment declares
// one of them as its Scale, and stltbench runs it there.
var (
	// redisScale (fig1, fig11, fig12): the working set dwarfs the 2 MB
	// L3 and the 6 MB TLB reach, as in the paper.
	redisScale = Scale{Keys: 400_000, WarmFactor: 3, MeasureOps: 64_000}
	// mainScale: every other experiment.
	mainScale = Scale{Keys: 200_000, WarmFactor: 2.5, MeasureOps: 48_000}
	// sweepScale (fig14-fig17, fig19r): mainScale with the sweeps
	// trimmed to 4 sizes and 2 apps.
	sweepScale = Scale{Keys: 200_000, WarmFactor: 2.5, MeasureOps: 48_000, Quick: true}
)

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
// share configurations (fig14/15/16; fig11/12; fig18/ext-hwhash) do not
// re-simulate.
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

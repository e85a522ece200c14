package harness

import (
	"fmt"
	"sort"

	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "ext-latency",
		Title: "Extension: per-operation latency distribution (worst-case query latency)",
		Shape: "the STLT improves the mean and median strongly; tail operations (STLT misses that pay probe + slow path) stay near the baseline tail — the 'worst-case query latency' factor Section III-F says users can tune",
		Scale: mainScale,
		Run:   runExtLatency,
	})
}

// latencyProfile runs an engine manually (no run cache) and collects
// per-operation cycle counts for the measured window.
func latencyProfile(sc Scale, mode kv.Mode, kind kv.IndexKind) []uint64 {
	cfg := kv.Config{Keys: sc.Keys, Index: kind, Mode: mode, Seed: 42}
	e, err := kv.New(cfg)
	if err != nil {
		panic(err)
	}
	e.Load(sc.Keys, 64)
	g := ycsb.NewGenerator(ycsb.Config{
		Keys: sc.Keys, ValueSize: 64, Dist: ycsb.Zipf, Seed: 42,
	})
	for i := 0; i < sc.warmOps(); i++ {
		e.RunOp(g.Next(), 64)
	}
	e.MarkMeasurement()
	n := sc.MeasureOps
	lat := make([]uint64, n)
	prev := e.M.Cycles()
	for i := 0; i < n; i++ {
		e.RunOp(g.Next(), 64)
		now := e.M.Cycles()
		lat[i] = uint64(now - prev)
		prev = now
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

func pct(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func runExtLatency(sc Scale) []*Table {
	kinds := []kv.IndexKind{kv.KindChainHash, kv.KindBTree}
	if sc.Quick {
		kinds = kinds[:1]
	}
	t := NewTable("Extension: simulated per-GET latency percentiles (cycles; zipf, 64B)",
		"index", "mode", "p50", "p90", "p99", "p99.9", "max")
	for _, kind := range kinds {
		for _, mode := range []kv.Mode{kv.ModeBaseline, kv.ModeSTLT} {
			lat := latencyProfile(sc, mode, kind)
			t.AddRow(string(kind), string(mode),
				lat[len(lat)/2], pct(lat, 0.90), pct(lat, 0.99),
				pct(lat, 0.999), lat[len(lat)-1])
		}
	}
	t.Note = fmt.Sprintf("keys=%d. STLT misses pay probe+slow-path, so the extreme tail converges toward baseline while the body of the distribution shifts left.", sc.Keys)
	return []*Table{t}
}

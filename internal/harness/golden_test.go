package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/index"
	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

// update rewrites testdata/golden_model.json from the running code:
// `go test ./internal/harness -run GoldenModel -update`. Only a PR that
// means to change what the model computes may do that, and says so; a
// PR that changes what the simulator costs the host must not.
var update = flag.Bool("update", false, "rewrite testdata/golden_model.json from the running code")

const goldenPath = "testdata/golden_model.json"

// levelCounters are one cache or TLB level's own counters, read off the
// structure itself and not through kv.Stats, which sums or omits them.
type levelCounters struct {
	Hits, Misses, Evictions, PrefetchHits uint64
}

// goldenRun is everything one run is pinned on.
type goldenRun struct {
	Stats        kv.Stats
	L1, L2, L3   levelCounters
	L1TLB, L2TLB levelCounters
	// Writebacks is DRAM.Writebacks itself: cpu.Stats.DRAMWritebacks is
	// declared and never filled in.
	Writebacks uint64
}

// goldenSpecs are small enough for tier-1 (six runs, under 2 s together)
// and between them reach every branch of the set-associative structures
// a production run reaches: demand fills at all three levels, dirty
// write-backs (5 % SETs), both LLC prefetchers' low-priority fills and
// first-touch promotions, and the TLB prefetcher's InsertPrefetched.
func goldenSpecs() map[string]spec {
	base := spec{keys: 20_000, valueSize: 64, dist: ycsb.Zipf, index: kv.KindChainHash,
		redis: true, warmOps: 30_000, measureOps: 12_000}
	with := func(f func(*spec)) spec { sp := base; f(&sp); return sp }
	return map[string]spec{
		"baseline":    with(func(sp *spec) { sp.mode = kv.ModeBaseline }),
		"stlt":        with(func(sp *spec) { sp.mode = kv.ModeSTLT }),
		"slb":         with(func(sp *spec) { sp.mode = kv.ModeSLB; sp.index = kv.KindBTree; sp.redis = false }),
		"stlt-stride": with(func(sp *spec) { sp.mode = kv.ModeSTLT; sp.prefetch = "stride" }),
		"stlt-vldp":   with(func(sp *spec) { sp.mode = kv.ModeSTLT; sp.prefetch = "vldp"; sp.index = kv.KindRBTree }),
		"stlt-tlbpf":  with(func(sp *spec) { sp.mode = kv.ModeSTLT; sp.tlbPf = true; sp.dist = ycsb.Latest }),
	}
}

// writePathRun is the seventh golden run, the write path the six
// read-mostly specs never reach: 5 000 keys loaded with 64 B values, then
// 40 000 uniform 256 B SETs over 20 000 ids in STLT mode. On the way the
// chain hash grows, every first overwrite moves its record and refreshes
// its STLT row, and the heap maps fresh leaf tables mid-run.
func writePathRun(t *testing.T) *kv.Engine {
	const loaded, ids, sets, valueSize = 5_000, 20_000, 40_000, 256
	e, err := kv.New(kv.Config{Keys: loaded, Index: kv.KindChainHash, Mode: kv.ModeSTLT, RedisLayer: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(loaded, 64)
	e.MarkMeasurement()
	pages := e.M.AS.PT.MappedPages()
	g := ycsb.NewGenerator(ycsb.Config{Keys: ids, ValueSize: valueSize, Dist: ycsb.Uniform, SetFraction: 1, Seed: 42})
	for i := 0; i < sets; i++ {
		e.RunOp(g.Next(), valueSize)
	}
	if e.Idx.(*index.ChainHash).Grows == 0 || e.Stats().Moves == 0 || e.STLT.Stats.Inserts == 0 {
		t.Errorf("write-path run: grows %d, moves %d, STLT inserts %d; want all > 0",
			e.Idx.(*index.ChainHash).Grows, e.Stats().Moves, e.STLT.Stats.Inserts)
	}
	if e.M.AS.PT.MappedPages()-pages < arch.PageSize/8 {
		t.Errorf("write-path run mapped %d pages, less than one leaf table's reach", e.M.AS.PT.MappedPages()-pages)
	}
	return e
}

func goldenOf(e *kv.Engine) goldenRun {
	c, t := e.M.Caches, e.M.TLBs
	return goldenRun{
		Stats: e.Stats(),
		L1:    levelCounters{c.L1.Hits, c.L1.Misses, c.L1.Evictions, c.L1.PrefetchHits},
		L2:    levelCounters{c.L2.Hits, c.L2.Misses, c.L2.Evictions, c.L2.PrefetchHits},
		L3:    levelCounters{c.L3.Hits, c.L3.Misses, c.L3.Evictions, c.L3.PrefetchHits},
		L1TLB: levelCounters{Hits: t.L1.Hits, Misses: t.L1.Misses, PrefetchHits: t.L1.PrefetchHits},
		L2TLB: levelCounters{Hits: t.L2.Hits, Misses: t.L2.Misses, PrefetchHits: t.L2.PrefetchHits},

		Writebacks: c.Mem.Writebacks,
	}
}

// TestGoldenModel pins the modeled numbers across commits: "then" is the
// committed file, "now" is this binary, computed independently and
// compared whole. TestRunsAreDeterministic only compares a binary with
// itself; this is what catches a simulator that drifted.
func TestGoldenModel(t *testing.T) {
	now := map[string]goldenRun{}
	for name, sp := range goldenSpecs() {
		now[name] = goldenOf(simulate(sp))
	}
	now["stlt-sets"] = goldenOf(writePathRun(t))
	if *update {
		out, err := json.MarshalIndent(now, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update, on the commit whose model is the reference)", err)
	}
	var then map[string]goldenRun
	if err := json.Unmarshal(raw, &then); err != nil {
		t.Fatal(err)
	}
	if len(then) != len(now) {
		t.Errorf("golden file holds %d runs, the test makes %d", len(then), len(now))
	}
	for name, got := range now {
		want, ok := then[name]
		if !ok {
			t.Errorf("%s: not in the golden file", name)
			continue
		}
		// Compared as JSON text: every field, floats by their shortest
		// round-tripping spelling, and the failure prints both sides.
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		if !bytes.Equal(g, w) {
			t.Errorf("%s: the model moved\n--- then (%s)\n%s\n--- now\n%s", name, goldenPath, w, g)
		}
		if got.Stats.Machine.CacheTotal.L3Miss == 0 || got.L3.Evictions == 0 {
			t.Errorf("%s: run never missed or evicted at L3; it pins nothing about the hierarchy", name)
		}
	}
}

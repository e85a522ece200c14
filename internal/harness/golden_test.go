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
	Writebacks   uint64
}

// goldenSpecs are small enough for tier-1 and between them reach every
// branch of the set-associative structures a production run reaches:
// demand fills at all three levels, dirty write-backs (5 % SETs), both
// LLC prefetchers' low-priority fills and first-touch promotions, and the
// TLB prefetcher's InsertPrefetched. The last three are the fast path's
// other variants: the Figure 19 ablations and the hardware hash unit.
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
		"stlt-sw":     with(func(sp *spec) { sp.mode = kv.ModeSTLTSW }),
		"stlt-va":     with(func(sp *spec) { sp.mode = kv.ModeSTLTVA }),
		"stlt-hwhash": with(func(sp *spec) { sp.mode = kv.ModeSTLT; sp.hwHash = true }),
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

// mixRun is the keyed-verb mix the read-mostly specs never reach: zipf
// GET, SET, EXISTS, EXPIRE, TTL and DEL over 20 000 loaded keys under a
// settable clock. SETs grow values from 64 to 256 B past a MaxMemory
// 224 KB above the loaded size, so records move, deleted keys come back,
// keys expire lazily and the LFU evicts, all on the measured path.
func mixRun(t *testing.T, mode kv.Mode) *kv.Engine {
	const keys, ops, valueSize = 20_000, 30_000, 64
	maxMemory := int64(keys*index.RecordSize(ycsb.KeyLen, valueSize)) + 224<<10
	e, err := kv.New(kv.Config{Keys: keys, Index: kv.KindChainHash, Mode: mode, RedisLayer: true,
		MaxMemory: maxMemory, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1_000_000_000)
	e.SetClock(func() int64 { return now })
	e.Load(keys, valueSize)
	e.MarkMeasurement()
	g := ycsb.NewGenerator(ycsb.Config{Keys: keys, ValueSize: valueSize, Dist: ycsb.Zipf, Seed: 42})
	var buf []byte
	for i := 0; i < ops; i++ {
		now += 1_000
		id := g.Next().KeyID
		key := ycsb.KeyName(id)
		switch i % 10 {
		case 0, 1, 2, 9:
			buf, _ = e.GetInto(key, buf)
		case 3, 4:
			e.Set(key, ycsb.Value(id, uint32(i), 4*valueSize))
		case 5:
			e.Exists(key)
		case 6:
			e.ExpireAt(key, now+2_000_000)
		case 7:
			e.TTL(key)
		case 8:
			e.Delete(key)
		}
	}
	if st := e.Stats(); st.Moves == 0 || st.Misses == 0 || st.Expired == 0 || st.Evicted == 0 {
		t.Errorf("%s mix run: moves %d, misses %d, expired %d, evicted %d; want all > 0",
			mode, st.Moves, st.Misses, st.Expired, st.Evicted)
	}
	return e
}

// floodRun is the traffic no other run sends: an STLT engine through
// zipf traffic, a flood of absent keys (every probe misses, Section
// III-H), and zipf traffic again. It counts from the build, with no
// MarkMeasurement.
func floodRun(t *testing.T) *kv.Engine {
	const keys, valueSize = 20_000, 64
	e, err := kv.New(kv.Config{Keys: keys, Index: kv.KindChainHash, Mode: kv.ModeSTLT, RedisLayer: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(keys, valueSize)
	g := ycsb.NewGenerator(ycsb.Config{Keys: keys, ValueSize: valueSize, Dist: ycsb.Zipf, Seed: 42})
	for i := 0; i < 40_000; i++ {
		e.RunOp(g.Next(), valueSize)
	}
	for i := uint64(0); i < 20_000; i++ {
		e.GetTouch(ycsb.KeyName(10_000_000 + i))
	}
	for i := 0; i < 40_000; i++ {
		e.RunOp(g.Next(), valueSize)
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
	now["mix-stlt"] = goldenOf(mixRun(t, kv.ModeSTLT))
	now["mix-slb"] = goldenOf(mixRun(t, kv.ModeSLB))
	now["stlt-flood"] = goldenOf(floodRun(t))
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

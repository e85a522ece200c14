package kv

import (
	"bytes"
	"testing"

	"addrkv/internal/ycsb"
)

func newEngine(t *testing.T, mode Mode, kind IndexKind, redis bool) *Engine {
	t.Helper()
	e, err := New(Config{Keys: 4000, Index: kind, Mode: mode, RedisLayer: redis, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero Keys accepted")
	}
	if _, err := New(Config{Keys: 10, Index: "cuckoo"}); err == nil {
		t.Error("unknown index accepted")
	}
	if _, err := New(Config{Keys: 10, Mode: "magic"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := New(Config{Keys: 10, DataPrefetcher: "ghb"}); err == nil {
		t.Error("unknown prefetcher accepted")
	}
}

func TestDefaultsFollowPaper(t *testing.T) {
	e, err := New(Config{Keys: 1000, RedisLayer: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cfg.SlowHash.Name != "sipHash" {
		t.Errorf("Redis slow hash = %s, want sipHash", e.Cfg.SlowHash.Name)
	}
	if e.Cfg.FastHash.Name != "xxh3" {
		t.Errorf("fast hash = %s, want xxh3", e.Cfg.FastHash.Name)
	}
	e2, _ := New(Config{Keys: 1000})
	if e2.Cfg.SlowHash.Name != "murmurHash" {
		t.Errorf("kernel slow hash = %s, want murmurHash", e2.Cfg.SlowHash.Name)
	}
	if e2.Cfg.STLTWays != 4 {
		t.Errorf("default ways = %d", e2.Cfg.STLTWays)
	}
}

func TestLoadThenGetAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSTLT, ModeSLB, ModeSTLTSW, ModeSTLTVA} {
		for _, kind := range AllIndexKinds() {
			e := newEngine(t, mode, kind, false)
			e.Load(500, 64)
			for id := uint64(0); id < 500; id += 97 {
				v, ok := e.Get(ycsb.KeyName(id))
				if !ok {
					t.Fatalf("%s/%s: key %d missing", mode, kind, id)
				}
				if !bytes.Equal(v, ycsb.Value(id, 0, 64)) {
					t.Fatalf("%s/%s: wrong value for key %d", mode, kind, id)
				}
			}
			if _, ok := e.Get([]byte("user99999999999999999999")); ok {
				t.Fatalf("%s/%s: phantom key", mode, kind)
			}
		}
	}
}

func TestSTLTFastPathActuallyHits(t *testing.T) {
	e := newEngine(t, ModeSTLT, KindChainHash, false)
	e.Load(500, 64)
	key := ycsb.KeyName(7)
	e.Get(key) // miss -> insertSTLT
	e.MarkMeasurement()
	e.Get(key) // must be a fast-path hit
	st := e.Stats()
	if st.FastHits != 1 {
		t.Fatalf("FastHits = %d", st.FastHits)
	}
	if st.STLT.Hits == 0 {
		t.Fatal("STLT recorded no hit")
	}
}

func TestSTLTHitIsCheaperThanBaseline(t *testing.T) {
	// The same repeated GET must cost less with the STLT than the
	// chained-hash slow path once both are warm — on a cold cache
	// both paths converge; use many distinct keys to keep misses real.
	base := newEngine(t, ModeBaseline, KindRBTree, false)
	fast := newEngine(t, ModeSTLT, KindRBTree, false)
	base.Load(4000, 64)
	fast.Load(4000, 64)
	for id := uint64(0); id < 4000; id++ {
		k := ycsb.KeyName(id)
		base.GetTouch(k)
		fast.GetTouch(k)
	}
	base.MarkMeasurement()
	fast.MarkMeasurement()
	for id := uint64(0); id < 4000; id++ {
		k := ycsb.KeyName(id)
		base.GetTouch(k)
		fast.GetTouch(k)
	}
	b, f := base.Stats(), fast.Stats()
	if f.Machine.Cycles >= b.Machine.Cycles {
		t.Fatalf("STLT (%d cy) not cheaper than baseline (%d cy) on rbtree sweep",
			f.Machine.Cycles, b.Machine.Cycles)
	}
}

func TestRecordMoveRefreshesSTLT(t *testing.T) {
	e := newEngine(t, ModeSTLT, KindChainHash, false)
	e.Load(100, 64)
	key := ycsb.KeyName(3)
	e.Get(key) // prime STLT

	// Grow the value so the record moves.
	big := bytes.Repeat([]byte{0xAB}, 500)
	e.Set(key, big)
	st := e.Stats()
	if st.Moves != 1 {
		t.Fatalf("Moves = %d", st.Moves)
	}
	// The next GET must return the new value and still work via the
	// refreshed fast path.
	v, ok := e.Get(key)
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("value after move wrong")
	}
	e.MarkMeasurement()
	e.Get(key)
	if e.Stats().FastHits != 1 {
		t.Fatal("fast path not refreshed after record move")
	}
}

func TestRecordMoveInvalidatesSLB(t *testing.T) {
	e := newEngine(t, ModeSLB, KindChainHash, false)
	e.Load(100, 64)
	key := ycsb.KeyName(3)
	e.Get(key)
	e.Get(key) // second touch admits into SLB (freq)
	big := bytes.Repeat([]byte{0xCD}, 500)
	e.Set(key, big)
	v, ok := e.Get(key)
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("SLB returned stale record after move")
	}
}

func TestDeleteKeepsFastPathsCoherent(t *testing.T) {
	for _, mode := range []Mode{ModeSTLT, ModeSLB} {
		e := newEngine(t, mode, KindChainHash, false)
		e.Load(100, 64)
		key := ycsb.KeyName(5)
		e.Get(key)
		e.Get(key)
		if !e.Delete(key) {
			t.Fatal("delete failed")
		}
		if _, ok := e.Get(key); ok {
			t.Fatalf("%s: deleted key still visible", mode)
		}
	}
}

func TestRedisLayerAddsOverhead(t *testing.T) {
	plain := newEngine(t, ModeBaseline, KindChainHash, false)
	redis := newEngine(t, ModeBaseline, KindChainHash, true)
	plain.Load(1000, 64)
	redis.Load(1000, 64)
	plain.MarkMeasurement()
	redis.MarkMeasurement()
	for id := uint64(0); id < 1000; id++ {
		k := ycsb.KeyName(id)
		plain.GetTouch(k)
		redis.GetTouch(k)
	}
	if redis.Stats().Machine.Cycles <= plain.Stats().Machine.Cycles {
		t.Fatal("Redis layer added no cost")
	}
}

func TestMonitorDisablesUnderMissFlood(t *testing.T) {
	e, err := New(Config{Keys: 1000, Index: KindChainHash, Mode: ModeSTLT, Monitor: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(1000, 64)
	if e.Monitor == nil {
		t.Fatal("monitor not attached")
	}
	// Hash-flooding-like traffic: every GET misses the store entirely
	// (absent keys), so the STLT never pays.
	for i := uint64(100000); i < 108000; i++ {
		e.GetTouch(ycsb.KeyName(i))
	}
	if e.Monitor.Decisions == 0 {
		t.Fatal("monitor never decided")
	}
	if e.Monitor.Disables == 0 {
		t.Fatal("monitor kept a useless STLT enabled")
	}
}

func TestStatsPerOpAccounting(t *testing.T) {
	e := newEngine(t, ModeBaseline, KindChainHash, false)
	e.Load(100, 64)
	e.MarkMeasurement()
	g := ycsb.NewGenerator(ycsb.Config{Keys: 100, ValueSize: 64, Dist: ycsb.Uniform, Seed: 1})
	for i := 0; i < 500; i++ {
		e.RunOp(g.Next(), 64)
	}
	st := e.Stats()
	if st.Ops != 500 || st.Gets != 500 {
		t.Fatalf("ops=%d gets=%d", st.Ops, st.Gets)
	}
	if st.CyclesPerOp() <= 0 {
		t.Fatal("no cycles per op")
	}
	if st.Misses != 0 {
		t.Fatalf("unexpected misses: %d", st.Misses)
	}
}

func TestDefaultSTLTRows(t *testing.T) {
	rows := DefaultSTLTRows(100000, 4)
	if rows%4 != 0 {
		t.Fatal("rows not divisible by ways")
	}
	sets := rows / 4
	if sets&(sets-1) != 0 {
		t.Fatal("set count not a power of two")
	}
	ratio := float64(rows) / 100000
	if ratio < 3.2 || ratio > 6.4 {
		t.Fatalf("rows/key = %.2f, want in [3.2, 6.4)", ratio)
	}
}

func TestPaperEquivalentMB(t *testing.T) {
	// At exactly 10M keys the label equals the real size.
	rows := 512 << 20 / 16
	if got := PaperEquivalentMB(rows, 10_000_000); got < 511 || got > 513 {
		t.Fatalf("PaperEquivalentMB = %v, want 512", got)
	}
}

func TestLatestWorkloadInsertsNewKeys(t *testing.T) {
	e := newEngine(t, ModeSTLT, KindChainHash, false)
	e.Load(2000, 64)
	g := ycsb.NewGenerator(ycsb.Config{
		Keys: 2000, ValueSize: 64, Dist: ycsb.Latest, Seed: 5, SetFraction: 0.05,
	})
	for i := 0; i < 20000; i++ {
		e.RunOp(g.Next(), 64)
	}
	if e.Idx.Len() <= 2000 {
		t.Fatal("latest workload inserted no new keys")
	}
	st := e.Stats()
	if st.Sets == 0 || st.Misses != 0 {
		t.Fatalf("sets=%d misses=%d", st.Sets, st.Misses)
	}
}

func TestAutoTuneGrowsUndersizedSTLT(t *testing.T) {
	// A deliberately tiny STLT thrashes on a uniform workload; the
	// tuner must grow it and the miss rate must improve.
	e, err := New(Config{
		Keys: 20000, Index: KindChainHash, Mode: ModeSTLT,
		STLTRows: 4096, AutoTune: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(20000, 64)
	if e.Tuner == nil {
		t.Fatal("tuner not attached")
	}
	e.Tuner.EvalOps = 4096
	before := e.STLT.Rows()
	g := ycsb.NewGenerator(ycsb.Config{Keys: 20000, ValueSize: 64, Dist: ycsb.Uniform, Seed: 9})
	for i := 0; i < 120000; i++ {
		e.RunOp(g.Next(), 64)
	}
	if e.Tuner.Grows == 0 {
		t.Fatal("tuner never grew the thrashing STLT")
	}
	if e.STLT.Rows() <= before {
		t.Fatalf("rows %d not grown from %d", e.STLT.Rows(), before)
	}
	// Measure the miss rate after tuning settles.
	e.MarkMeasurement()
	for i := 0; i < 20000; i++ {
		e.RunOp(g.Next(), 64)
	}
	if mr := e.Stats().STLT.MissRate(); mr > 0.5 {
		t.Fatalf("post-tuning miss rate %.2f still thrashing", mr)
	}
}

// TestDeleteTinyRecordNoStaleHit pins the allocator-alias regression:
// freeing a record overwrites its header with a tagged free-list link
// whose low byte can read back as keyLen=1, so before eager STLT
// invalidation a warm GET of a deleted 1-byte key validated against
// its own freed record and returned a stale empty value with ok=true.
func TestDeleteTinyRecordNoStaleHit(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSTLT, ModeSTLTSW, ModeSTLTVA, ModeSLB} {
		e, err := New(Config{Keys: 100, Index: KindChainHash, Mode: mode, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.Set([]byte("a"), []byte("1"))
		if v, ok := e.Get([]byte("a")); !ok || string(v) != "1" { // warm the fast path
			t.Fatalf("%s: warm GET = %q, %v", mode, v, ok)
		}
		if !e.Delete([]byte("a")) {
			t.Fatalf("%s: delete failed", mode)
		}
		if v, ok := e.Get([]byte("a")); ok {
			t.Fatalf("%s: deleted key served stale value %q", mode, v)
		}
	}
}

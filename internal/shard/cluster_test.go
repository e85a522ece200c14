package shard

import (
	"fmt"
	"sync"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

// TestOneShardMatchesSingleEngine: a 1-shard cluster must reproduce
// the seed single-engine run bit-for-bit — same cycles, same TLB and
// STLT counters. This pins the cluster layer as pure routing with no
// timing side effects.
func TestOneShardMatchesSingleEngine(t *testing.T) {
	cfg := kv.Config{Keys: 8000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	const loadN, warm, measure = 8000, 20000, 6000

	e, err := kv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Load(loadN, 64)
	c, err := New(Config{Shards: 1, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(loadN, 64)

	gcfg := ycsb.Config{Keys: loadN, ValueSize: 64, Dist: ycsb.Zipf, Seed: 7, SetFraction: 0.05}
	ge, gc := ycsb.NewGenerator(gcfg), ycsb.NewGenerator(gcfg)
	for i := 0; i < warm; i++ {
		e.RunOp(ge.Next(), 64)
		c.RunOp(gc.Next(), 64)
	}
	e.MarkMeasurement()
	c.MarkMeasurement()
	for i := 0; i < measure; i++ {
		e.RunOp(ge.Next(), 64)
		c.RunOp(gc.Next(), 64)
	}

	want := e.Stats()
	got := c.Stats()
	if got.Agg != want {
		t.Fatalf("1-shard cluster diverged from single engine:\ncluster: %+v\nengine:  %+v", got.Agg, want)
	}
	if got.MaxShardCycles != uint64(want.Machine.Cycles) {
		t.Fatalf("MaxShardCycles = %d, want %d", got.MaxShardCycles, want.Machine.Cycles)
	}
}

// TestObservedOpsMatchUnobserved: running the exact same stream with
// per-op outcome observation enabled must leave the engines bit-for-bit
// identical to an unobserved run (telemetry reads counters, never
// charges cycles), and the outcome deltas must sum to the engine's own
// aggregate counters.
func TestObservedOpsMatchUnobserved(t *testing.T) {
	cfg := kv.Config{Keys: 6000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	const loadN, nOps = 6000, 12000

	plain, err := New(Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := New(Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	plain.Load(loadN, 64)
	observed.Load(loadN, 64)
	// Drop table-allocation cycles so outcome sums cover every
	// remaining cycle in the aggregate.
	plain.MarkMeasurement()
	observed.MarkMeasurement()

	gcfg := ycsb.Config{Keys: loadN, ValueSize: 64, Dist: ycsb.Zipf, Seed: 9, SetFraction: 0.1}
	gp, go_ := ycsb.NewGenerator(gcfg), ycsb.NewGenerator(gcfg)
	var oc OpOutcome
	var sumCycles, sumTLBMisses, sumWalks, fastHits uint64
	var buf [ycsb.KeyLen]byte
	for i := 0; i < nOps; i++ {
		opP, opO := gp.Next(), go_.Next()
		key := ycsb.KeyNameInto(buf[:], opO.KeyID)
		req := Req{Kind: OpGetTouch, Key: key}
		if opP.Type == ycsb.Set {
			plain.Set(ycsb.KeyNameInto(buf[:], opP.KeyID), ycsb.Value(opP.KeyID, 1, 64))
			req.Kind, req.Value = OpSet, ycsb.Value(opO.KeyID, 1, 64)
		} else {
			plain.GetTouch(ycsb.KeyNameInto(buf[:], opP.KeyID))
		}
		observed.Do(&req)
		oc = req.Out
		if want := observed.ShardFor(key); oc.Shard != want {
			t.Fatalf("outcome shard %d, want %d", oc.Shard, want)
		}
		sumCycles += oc.Cycles
		sumTLBMisses += oc.TLBMisses
		sumWalks += oc.PageWalks
		if oc.FastHit {
			fastHits++
		}
	}

	want, got := plain.Stats(), observed.Stats()
	if got.Agg != want.Agg {
		t.Fatalf("observed cluster diverged from unobserved:\nobserved: %+v\nplain:    %+v", got.Agg, want.Agg)
	}
	if sumCycles != uint64(got.Agg.Machine.Cycles) {
		t.Errorf("outcome cycles sum %d != aggregate %d", sumCycles, got.Agg.Machine.Cycles)
	}
	if sumTLBMisses != got.Agg.Machine.TLBMisses {
		t.Errorf("outcome TLB misses sum %d != aggregate %d", sumTLBMisses, got.Agg.Machine.TLBMisses)
	}
	if sumWalks != got.Agg.Machine.PageWalks {
		t.Errorf("outcome page walks sum %d != aggregate %d", sumWalks, got.Agg.Machine.PageWalks)
	}
	if fastHits != got.Agg.FastHits {
		t.Errorf("outcome fast hits %d != aggregate %d", fastHits, got.Agg.FastHits)
	}
}

// TestRoutingStableAndCovering: the same key always routes to the same
// shard, and a modest key population touches every shard.
func TestRoutingStableAndCovering(t *testing.T) {
	c, err := New(Config{Shards: 4, Engine: kv.Config{Keys: 4000, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for id := uint64(0); id < 1000; id++ {
		key := ycsb.KeyName(id)
		s := c.ShardFor(key)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if again := c.ShardFor(key); again != s {
			t.Fatalf("routing unstable for key %q: %d then %d", key, s, again)
		}
		seen[s]++
	}
	for i := 0; i < 4; i++ {
		if seen[i] == 0 {
			t.Fatalf("shard %d received no keys: %v", i, seen)
		}
	}
}

// TestShardingPartitionsKeys: after a routed load, per-shard index
// sizes sum to the total and match the router's assignment.
func TestShardingPartitionsKeys(t *testing.T) {
	const n = 3000
	c, err := New(Config{Shards: 4, Engine: kv.Config{Keys: n, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(n, 64)
	if got := c.Len(); got != n {
		t.Fatalf("cluster Len = %d, want %d", got, n)
	}
	want := map[int]int{}
	for id := uint64(0); id < n; id++ {
		want[c.ShardFor(ycsb.KeyName(id))]++
	}
	for i := 0; i < 4; i++ {
		if got := c.Engine(i).Idx.Len(); got != want[i] {
			t.Fatalf("shard %d holds %d keys, router assigned %d", i, got, want[i])
		}
	}
}

// TestConcurrentOpsExact: hammer a 4-shard cluster from many
// goroutines (run under -race in CI) and check the aggregate op count
// is exact — no lost updates in the per-shard locking.
func TestConcurrentOpsExact(t *testing.T) {
	const (
		shards     = 4
		goroutines = 8
		opsEach    = 2000
		keys       = 4000
	)
	c, err := New(Config{Shards: shards, Engine: kv.Config{Keys: keys, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(keys, 64)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := ycsb.NewGenerator(ycsb.Config{
				Keys: keys, ValueSize: 64, Dist: ycsb.Zipf,
				Seed: uint64(g + 1), SetFraction: 0.1,
			})
			for i := 0; i < opsEach; i++ {
				c.RunOp(gen.Next(), 64)
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if want := uint64(goroutines * opsEach); st.Agg.Ops != want {
		t.Fatalf("aggregate ops = %d, want %d", st.Agg.Ops, want)
	}
	var perShard uint64
	for _, s := range st.PerShard {
		perShard += s.Ops
	}
	if perShard != st.Agg.Ops {
		t.Fatalf("per-shard ops sum %d != aggregate %d", perShard, st.Agg.Ops)
	}
	if st.MaxShardCycles == 0 {
		t.Fatal("no shard accumulated cycles")
	}
}

// TestClusterReset: Reset empties every shard and zeroes stats, and
// the cluster is usable afterwards.
func TestClusterReset(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{Keys: 1000, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(1000, 64)
	c.Set([]byte("somekey"), []byte("v"))
	if c.Len() == 0 {
		t.Fatal("setup failed")
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len after reset = %d", got)
	}
	st := c.Stats()
	if st.Agg.Ops != 0 || st.Agg.Machine.Cycles != 0 {
		t.Fatalf("stats not zeroed after reset: %+v", st.Agg)
	}
	c.Set([]byte("somekey"), []byte("v"))
	if v, ok := c.Get([]byte("somekey")); !ok || string(v) != "v" {
		t.Fatalf("cluster unusable after reset: %q %v", v, ok)
	}
}

// TestShardSeedsDiffer: shards must not share hash layouts (each gets
// Seed+i), while shard 0 keeps the template seed.
func TestShardSeedsDiffer(t *testing.T) {
	c, err := New(Config{Shards: 3, Engine: kv.Config{Keys: 900, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := c.Engine(i).Cfg.Seed; got != 42+uint64(i) {
			t.Fatalf("shard %d seed = %d, want %d", i, got, 42+i)
		}
	}
}

// TestPerShardSTLTSizing: each shard's STLT is sized for keys/N, not
// the full key count (the paper's per-process table, sliced).
func TestPerShardSTLTSizing(t *testing.T) {
	total := 64000
	single, err := New(Config{Shards: 1, Engine: kv.Config{Keys: total, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := New(Config{Shards: 4, Engine: kv.Config{Keys: total, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	sr := single.Engine(0).Cfg.STLTRows
	qr := quad.Engine(0).Cfg.STLTRows
	if qr >= sr {
		t.Fatalf("4-shard STLT rows %d not smaller than 1-shard %d", qr, sr)
	}
	if want := kv.DefaultSTLTRows(total/4, 4); qr != want {
		t.Fatalf("per-shard STLT rows = %d, want DefaultSTLTRows(keys/4) = %d", qr, want)
	}
}

func ExampleCluster() {
	c, _ := New(Config{Shards: 2, Engine: kv.Config{Keys: 100, Mode: kv.ModeSTLT, Seed: 42}})
	c.Set([]byte("hello"), []byte("world"))
	v, _ := c.Get([]byte("hello"))
	fmt.Println(string(v), c.Exists([]byte("hello")), c.Exists([]byte("nope")))
	// Output: world true false
}

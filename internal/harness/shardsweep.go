package harness

import (
	"sync"

	"addrkv/internal/kv"
	"addrkv/internal/shard"
	"addrkv/internal/ycsb"
)

// Extension experiment: the sharded multi-core cluster. The paper
// evaluates one core; this sweep replicates the engine across N
// shards (each with private TLB/STB/IPB and an STLT sized at keys/N,
// the per-process table sliced) and measures how modeled throughput
// scales with the shard count.

func init() {
	register(Experiment{
		ID:    "ext-shards",
		Title: "Extension: sharded multi-core scaling of the STLT engine",
		Shape: "modeled throughput (ops per busiest-shard cycle) scales super-linearly with shard count: hash routing balances the zipf key space well, and each shard's keys/N working set fits ever deeper into its private caches and TLB reach, so cycles/op falls as shards rise",
		Scale: mainScale,
		Run:   runExtShards,
	})
}

func runExtShards(sc Scale) []*Table {
	counts := []int{1, 2, 4, 8}
	if sc.Quick {
		counts = []int{1, 2, 4}
	}
	t := NewTable("Extension: shard-count sweep (STLT, chainhash, zipf, 64B)",
		"shards", "cycles/op", "modeled ops/kcycle", "modeled speedup", "imbalance")

	var baseModeled float64
	for _, n := range counts {
		r := runShardedOnce(sc, n)
		if n == 1 {
			baseModeled = r.modeled
		}
		t.AddRow(n, r.cpo, 1000*r.modeled, r.modeled/baseModeled, r.imbalance)
	}
	t.Note = "Modeled speedup = ops/max-shard-cycles vs 1 shard (the slowest core bounds wall-clock). Imbalance = busiest shard's ops / mean. Per-shard STLTs are sized at keys/shards, so total table storage is constant across the sweep. Scaling is super-linear because every shard owns a full private cache/TLB hierarchy (no shared-LLC model) while serving only keys/N of the data — the multi-core analogue of the paper's reach argument."
	return []*Table{t}
}

// shardResult is one measured point of the shard sweep.
type shardResult struct {
	cpo       float64 // ops-weighted mean cycles per op
	modeled   float64 // ops per busiest-shard cycle
	imbalance float64 // busiest shard's ops / mean shard ops
}

// runShardedOnce builds an n-shard cluster, warms it with the global
// op stream, then replays the measured window with one goroutine per
// shard.
func runShardedOnce(sc Scale, n int) shardResult {
	const valueSize = 64
	c, err := shard.New(shard.Config{
		Shards: n,
		Engine: kv.Config{
			Keys:  sc.Keys,
			Index: kv.KindChainHash,
			Mode:  kv.ModeSTLT,
			Seed:  42,
		},
	})
	if err != nil {
		panic(err)
	}
	c.Load(sc.Keys, valueSize)

	g := ycsb.NewGenerator(ycsb.Config{
		Keys:      sc.Keys,
		ValueSize: valueSize,
		Dist:      ycsb.Zipf,
		Seed:      42,
	}.WithPaperSetFraction())

	for i := 0; i < sc.warmOps(); i++ {
		c.RunOp(g.Next(), valueSize)
	}
	c.MarkMeasurement()

	// Partition the measured window by home shard, preserving each
	// shard's arrival order — the per-core traffic a front-end
	// dispatcher would deliver.
	parts := make([][]ycsb.Op, n)
	var keyBuf [ycsb.KeyLen]byte
	for i := 0; i < sc.MeasureOps; i++ {
		op := g.Next()
		s := c.ShardFor(ycsb.KeyNameInto(keyBuf[:], op.KeyID))
		parts[s] = append(parts[s], op)
	}

	var wg sync.WaitGroup
	for s := range parts {
		wg.Add(1)
		go func(ops []ycsb.Op) {
			defer wg.Done()
			for _, op := range ops {
				c.RunOp(op, valueSize)
			}
		}(parts[s])
	}
	wg.Wait()

	st := c.Stats()
	r := shardResult{
		cpo:     st.CyclesPerOp(),
		modeled: st.ModeledThroughput(),
	}
	var maxOps uint64
	for _, s := range st.PerShard {
		if s.Ops > maxOps {
			maxOps = s.Ops
		}
	}
	if st.Agg.Ops > 0 {
		r.imbalance = float64(maxOps) * float64(n) / float64(st.Agg.Ops)
	}
	return r
}

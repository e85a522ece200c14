package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

// TestBatchMatchesSequentialSingleShard: on a 1-shard cluster, batched
// GET/SET/DEL must be bit-for-bit identical — replies, stats, modeled
// cycles — to issuing the same keys one at a time on the seed
// kv.Engine. This is the determinism contract the pipelined server
// relies on: MGET of N keys charges exactly N GETs.
func TestBatchMatchesSequentialSingleShard(t *testing.T) {
	cfg := kv.Config{Keys: 4000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	e, err := kv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Shards: 1, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(4000, 64)
	c.Load(4000, 64)

	rng := rand.New(rand.NewSource(99))
	var bo BatchOutcome
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(12)
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = ycsb.KeyName(uint64(rng.Intn(5000))) // some absent
			vals[i] = []byte(fmt.Sprintf("v%d-%d", round, i))
		}
		bo.PerShard = bo.PerShard[:0]
		batch := true
		switch rng.Intn(6) {
		case 0: // MGET
			gotV, gotOK := c.GetBatchO(keys, &bo)
			for i, k := range keys {
				wantV, wantOK := e.Get(k)
				if gotOK[i] != wantOK || string(gotV[i]) != string(wantV) {
					t.Fatalf("round %d GET %q: (%q,%v) != (%q,%v)",
						round, k, gotV[i], gotOK[i], wantV, wantOK)
				}
			}
		case 1: // MSET
			c.SetBatchO(keys, vals, &bo)
			for i, k := range keys {
				e.Set(k, vals[i])
			}
		case 2: // multi-key DEL
			got := c.DeleteBatchO(keys, &bo)
			want := 0
			for _, k := range keys {
				if e.Delete(k) {
					want++
				}
			}
			if got != want {
				t.Fatalf("round %d DEL count %d != %d", round, got, want)
			}
		case 3: // single GET
			batch = false
			gotV, gotOK := c.Get(keys[0])
			wantV, wantOK := e.Get(keys[0])
			if gotOK != wantOK || string(gotV) != string(wantV) {
				t.Fatalf("round %d single GET %q diverged", round, keys[0])
			}
		case 4: // single SET
			batch = false
			c.Set(keys[0], vals[0])
			e.Set(keys[0], vals[0])
		case 5: // single EXISTS
			batch = false
			if c.Exists(keys[0]) != e.Exists(keys[0]) {
				t.Fatalf("round %d EXISTS %q diverged", round, keys[0])
			}
		}
		if batch && (len(bo.PerShard) != 1 || bo.PerShard[0].Ops != n) {
			t.Fatalf("round %d outcome = %+v, want 1 shard with %d ops", round, bo.PerShard, n)
		}
	}

	want, got := e.Stats(), c.Stats()
	if got.Agg != want {
		t.Fatalf("batched cluster diverged from sequential engine:\ncluster: %+v\nengine:  %+v", got.Agg, want)
	}
	if got.MaxShardCycles != uint64(want.Machine.Cycles) {
		t.Fatalf("MaxShardCycles = %d, want %d", got.MaxShardCycles, want.Machine.Cycles)
	}
}

// TestBatchMatchesSingleOpsMultiShard: on a multi-shard cluster, a
// batched call must leave every shard in exactly the state N
// single-key cluster calls produce (grouping preserves per-shard op
// order), and the batch outcome's per-shard deltas must equal the sum
// of the single-op outcomes.
func TestBatchMatchesSingleOpsMultiShard(t *testing.T) {
	cfg := kv.Config{Keys: 4000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	const shards = 4
	batched, err := New(Config{Shards: shards, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(Config{Shards: shards, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	batched.Load(4000, 64)
	single.Load(4000, 64)

	rng := rand.New(rand.NewSource(7))
	var bo BatchOutcome
	var oc OpOutcome
	for round := 0; round < 120; round++ {
		n := 1 + rng.Intn(16)
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = ycsb.KeyName(uint64(rng.Intn(5000)))
			vals[i] = []byte(fmt.Sprintf("v%d-%d", round, i))
		}
		// Per-shard sums of the single-op outcomes, keyed by shard.
		sum := map[int]*ShardBatchOutcome{}
		note := func(o OpOutcome) {
			s := sum[o.Shard]
			if s == nil {
				s = &ShardBatchOutcome{Shard: o.Shard}
				sum[o.Shard] = s
			}
			s.Ops++
			s.Cycles += o.Cycles
			s.TLBMisses += o.TLBMisses
			s.STBHits += o.STBHits
			s.PageWalks += o.PageWalks
			if o.FastHit {
				s.FastHits++
			}
			if o.Missed {
				s.Misses++
			}
		}
		bo.PerShard = bo.PerShard[:0]
		switch round % 3 {
		case 0:
			gotV, gotOK := batched.GetBatchO(keys, &bo)
			for i, k := range keys {
				wantV, wantOK := single.GetO(k, &oc)
				note(oc)
				if gotOK[i] != wantOK || string(gotV[i]) != string(wantV) {
					t.Fatalf("round %d GET %q diverged", round, k)
				}
			}
		case 1:
			batched.SetBatchO(keys, vals, &bo)
			for i, k := range keys {
				single.SetO(k, vals[i], &oc)
				note(oc)
			}
		case 2:
			got := batched.DeleteBatchO(keys, &bo)
			want := 0
			for _, k := range keys {
				one := Req{Kind: OpDelete, Key: k}
				if single.Do(&one); one.OK {
					want++
				}
				note(one.Out)
			}
			if got != want {
				t.Fatalf("round %d DEL count %d != %d", round, got, want)
			}
		}
		if bo.TotalOps() != n {
			t.Fatalf("round %d outcome ops %d != %d", round, bo.TotalOps(), n)
		}
		for _, sb := range bo.PerShard {
			want := sum[sb.Shard]
			if want == nil {
				t.Fatalf("round %d: batch touched shard %d, single ops did not", round, sb.Shard)
			}
			if sb != *want {
				t.Fatalf("round %d shard %d outcome:\nbatch:  %+v\nsingle: %+v", round, sb.Shard, sb, *want)
			}
		}
	}

	want, got := single.Stats(), batched.Stats()
	if got.Agg != want.Agg {
		t.Fatalf("batched cluster diverged from single-op cluster:\nbatched: %+v\nsingle:  %+v", got.Agg, want.Agg)
	}
	for i := range want.PerShard {
		if got.PerShard[i] != want.PerShard[i] {
			t.Fatalf("shard %d stats diverged:\nbatched: %+v\nsingle:  %+v", i, got.PerShard[i], want.PerShard[i])
		}
	}
}

// TestBatchOutcomeMerged covers the OpOutcome flattening used by the
// server's slowlog: single-shard batches keep their shard id,
// multi-shard batches report -1, and cycle totals add up.
func TestBatchOutcomeMerged(t *testing.T) {
	bo := BatchOutcome{PerShard: []ShardBatchOutcome{
		{Shard: 2, Ops: 3, Cycles: 100, FastHits: 3},
	}}
	m := bo.Merged()
	if m.Shard != 2 || m.Cycles != 100 || !m.FastHit || m.Missed {
		t.Fatalf("single-shard merge = %+v", m)
	}
	bo.PerShard = append(bo.PerShard, ShardBatchOutcome{Shard: 0, Ops: 1, Cycles: 50, Misses: 1})
	m = bo.Merged()
	if m.Shard != -1 || m.Cycles != 150 || m.FastHit || !m.Missed {
		t.Fatalf("multi-shard merge = %+v", m)
	}
}

// TestBatchEmpty: zero-key batches are legal no-ops (the server guards
// arity, but the library should not care).
func TestBatchEmpty(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{Keys: 100, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	var bo BatchOutcome
	vals, oks := c.GetBatchO(nil, &bo)
	if len(vals) != 0 || len(oks) != 0 || len(bo.PerShard) != 0 {
		t.Fatalf("empty GetBatch: %v %v %+v", vals, oks, bo)
	}
	if n := c.DeleteBatchO(nil, &bo); n != 0 {
		t.Fatalf("empty DeleteBatch = %d", n)
	}
	c.SetBatchO(nil, nil, &bo)
	if c.Len() != 0 {
		t.Fatal("empty SetBatch inserted keys")
	}
}

package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/wal"
	"addrkv/internal/ycsb"
)

// batchReqs builds one kind Req per key (vals[i] as key i's SET value),
// the shape a multi-key command hands DoBatch.
func batchReqs(kind OpKind, keys, vals [][]byte) []*Req {
	reqs := make([]*Req, len(keys))
	for i, k := range keys {
		reqs[i] = &Req{Kind: kind, Key: k}
		if vals != nil {
			reqs[i].Value = vals[i]
		}
	}
	return reqs
}

// TestBatchMatchesSequentialSingleShard: on a 1-shard cluster, DoBatch
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
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(12)
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = ycsb.KeyName(uint64(rng.Intn(5000))) // some absent
			vals[i] = []byte(fmt.Sprintf("v%d-%d", round, i))
		}
		var reqs []*Req
		switch rng.Intn(6) {
		case 0: // MGET
			reqs = batchReqs(OpGet, keys, nil)
			c.DoBatch(reqs)
			for i, k := range keys {
				wantV, wantOK := e.GetInto(k, nil)
				if reqs[i].OK != wantOK || string(reqs[i].Val) != string(wantV) {
					t.Fatalf("round %d GET %q: (%q,%v) != (%q,%v)",
						round, k, reqs[i].Val, reqs[i].OK, wantV, wantOK)
				}
			}
		case 1: // MSET
			reqs = batchReqs(OpSet, keys, vals)
			c.DoBatch(reqs)
			for i, k := range keys {
				e.Set(k, vals[i])
			}
		case 2: // multi-key DEL
			reqs = batchReqs(OpDelete, keys, nil)
			c.DoBatch(reqs)
			for i, k := range keys {
				if want := e.Delete(k); reqs[i].OK != want {
					t.Fatalf("round %d DEL %q = %v, want %v", round, k, reqs[i].OK, want)
				}
			}
		case 3: // single GET
			gotV, gotOK := c.Get(keys[0])
			wantV, wantOK := e.GetInto(keys[0], nil)
			if gotOK != wantOK || string(gotV) != string(wantV) {
				t.Fatalf("round %d single GET %q diverged", round, keys[0])
			}
		case 4: // single SET
			c.Set(keys[0], vals[0])
			e.Set(keys[0], vals[0])
		case 5: // single EXISTS
			if c.Exists(keys[0]) != e.Exists(keys[0]) {
				t.Fatalf("round %d EXISTS %q diverged", round, keys[0])
			}
		}
		for _, r := range reqs {
			if r.Out.Shard != 0 || r.Out.Denied {
				t.Fatalf("round %d outcome = %+v, want shard 0", round, r.Out)
			}
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

// TestBatchMatchesSingleOpsMultiShard: on a multi-shard cluster with a
// WAL attached, every Req a DoBatch call runs must end exactly as the
// same op run through Do on a twin cluster — result and outcome, op by
// op (grouping preserves per-shard op order) — and the two clusters
// must end with the same stats and byte-identical logs. TTLs armed
// along the way make MGETs lazily expire keys, so maintenance frames
// interleave with the group's ops.
func TestBatchMatchesSingleOpsMultiShard(t *testing.T) {
	cfg := kv.Config{Keys: 4000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	const shards = 4
	now := int64(1_000_000)
	build := func() (*Cluster, string) {
		c, err := New(Config{Shards: shards, Engine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		c.SetClock(func() int64 { return now })
		dir := t.TempDir()
		logs, _ := openLogs(t, dir, shards, wal.FsyncNo)
		if err := c.AttachWAL(logs); err != nil {
			t.Fatal(err)
		}
		c.Load(4000, 64)
		return c, dir
	}
	batched, bdir := build()
	single, sdir := build()

	rng := rand.New(rand.NewSource(7))
	kinds := []OpKind{OpGet, OpSet, OpDelete}
	for round := 0; round < 150; round++ {
		n := 1 + rng.Intn(16)
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = ycsb.KeyName(uint64(rng.Intn(5000)))
			vals[i] = []byte(fmt.Sprintf("v%d-%d", round, i))
		}
		if round%5 == 4 { // arm a TTL on both, then let it lapse
			for _, c := range []*Cluster{batched, single} {
				c.Do(&Req{Kind: OpExpireAt, Key: keys[0], Deadline: now + 1})
			}
			now += 2
		}
		kind := kinds[round%3]
		reqs := batchReqs(kind, keys, vals)
		if !batched.DoBatch(reqs) {
			t.Fatalf("round %d: DoBatch refused without a gate", round)
		}
		for i, r := range reqs {
			one := Req{Kind: kind, Key: keys[i], Value: vals[i]}
			single.Do(&one)
			if !r.Out.Bypass {
				t.Fatalf("round %d: allowed group's op %d not marked Bypass", round, i)
			}
			r.Out.Bypass = false
			if r.OK != one.OK || !bytes.Equal(r.Val, one.Val) || r.Out != one.Out {
				t.Fatalf("round %d op %d (%q):\nbatch:  %v %q %+v\nsingle: %v %q %+v",
					round, i, keys[i], r.OK, r.Val, r.Out, one.OK, one.Val, one.Out)
			}
		}
	}
	want, got := single.Stats(), batched.Stats()
	for i := range want.PerShard {
		if got.PerShard[i] != want.PerShard[i] {
			t.Fatalf("shard %d stats diverged:\nbatched: %+v\nsingle:  %+v", i, got.PerShard[i], want.PerShard[i])
		}
	}
	for _, c := range []*Cluster{batched, single} {
		if err := c.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("/shard-%d.aof.1", i)
		b, err := os.ReadFile(bdir + name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := os.ReadFile(sdir + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, s) {
			t.Fatalf("shard %d: batched log (%d B) differs from single-op log (%d B)", i, len(b), len(s))
		}
	}
}

// TestBatchGateGroupVerdict pins the group verdict: DoBatch asks the op
// gate once per group, before any op of it runs, and refuses the group
// whole on anything but GateAllow — including the GateIfPresent a
// single op would be served under (no dual-serve for multi-key
// commands). A refused DoBatch leaves engine stats, the log and every
// Req's result untouched.
func TestBatchGateGroupVerdict(t *testing.T) {
	c, err := New(Config{Shards: 1, Engine: durTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	logs, _ := openLogs(t, t.TempDir(), 1, wal.FsyncNo)
	if err := c.AttachWAL(logs); err != nil {
		t.Fatal(err)
	}
	defer c.CloseWAL()
	present, other := []byte("present"), []byte("other")
	c.Set(present, []byte("v"))
	c.SetOpGate(func(key []byte) GateDecision {
		if bytes.Equal(key, present) {
			return GateIfPresent
		}
		return GateAllow
	})

	// A single op on the present key is dual-served...
	one := Req{Kind: OpGet, Key: present}
	if c.Do(&one); one.Out.Denied || !one.OK {
		t.Fatalf("single GET under GateIfPresent = %+v", one)
	}
	// ...a group containing it is refused whole, before `other` runs.
	stats, logStats := c.Stats(), c.WAL(0).Stats()
	for _, kind := range []OpKind{OpGet, OpSet, OpDelete} {
		reqs := batchReqs(kind, [][]byte{other, present}, [][]byte{[]byte("x"), []byte("y")})
		for _, r := range reqs {
			r.Val, r.OK, r.N = []byte("sentinel"), true, 7
		}
		if c.DoBatch(reqs) {
			t.Fatalf("kind %d: DoBatch allowed a group under GateIfPresent", kind)
		}
		for _, r := range reqs {
			if string(r.Val) != "sentinel" || !r.OK || r.N != 7 || r.Out != (OpOutcome{}) {
				t.Fatalf("kind %d: refused group's Req %q changed: %+v", kind, r.Key, r)
			}
		}
	}
	if got := c.Stats(); got.Agg != stats.Agg {
		t.Fatalf("refused groups moved engine stats:\nbefore %+v\nafter  %+v", stats.Agg, got.Agg)
	}
	if got := c.WAL(0).Stats(); got != logStats {
		t.Fatalf("refused groups moved the log:\nbefore %+v\nafter  %+v", logStats, got)
	}

	// Once the gate allows every key, the group runs and is not re-gated.
	c.SetOpGate(func([]byte) GateDecision { return GateAllow })
	reqs := batchReqs(OpGet, [][]byte{other, present}, nil)
	if !c.DoBatch(reqs) || reqs[0].OK || !reqs[1].OK || !reqs[1].Out.Bypass {
		t.Fatalf("allowed group: %+v %+v", reqs[0], reqs[1])
	}
}

// TestBatchEmpty: a zero-request batch is a legal no-op (the server
// guards arity, but the library should not care).
func TestBatchEmpty(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{Keys: 100, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.DoBatch(nil) || c.Len() != 0 || c.Stats().Agg.Ops != 0 {
		t.Fatal("empty DoBatch ran something")
	}
}

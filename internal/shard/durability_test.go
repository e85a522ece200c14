package shard

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/wal"
	"addrkv/internal/ycsb"
)

// durTestCfg is the engine template the durability tests share.
var durTestCfg = kv.Config{Keys: 2000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}

// testWrite is one issued mutation (the surviving-stream unit).
type testWrite struct {
	kind       wal.Kind // RecSet, RecDel, or RecFlush
	key, value []byte
}

// writeStream builds a deterministic mixed mutation stream: sets,
// overwrites, deletes (some of absent keys), one FLUSHALL in the
// middle, then rebuilding sets.
func writeStream(n int) []testWrite {
	var ws []testWrite
	for i := 0; i < n; i++ {
		key := ycsb.KeyName(uint64(i % 97))
		switch {
		case i == n/2:
			ws = append(ws, testWrite{kind: wal.RecFlush})
		case i%11 == 3:
			ws = append(ws, testWrite{kind: wal.RecDel, key: key})
		case i%17 == 5:
			// Delete of a key that may be absent.
			ws = append(ws, testWrite{kind: wal.RecDel, key: ycsb.KeyName(uint64(100000 + i))})
		default:
			ws = append(ws, testWrite{kind: wal.RecSet, key: key, value: fmt.Appendf(nil, "value-%d", i)})
		}
	}
	return ws
}

// openLogs opens one log per shard in dir and returns them with the
// per-shard recoveries.
func openLogs(t *testing.T, dir string, shards int, policy wal.Policy) ([]*wal.Log, []*wal.Recovery) {
	t.Helper()
	logs := make([]*wal.Log, shards)
	recs := make([]*wal.Recovery, shards)
	for i := 0; i < shards; i++ {
		l, rec, err := wal.OpenShard(dir, i, policy)
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		logs[i], recs[i] = l, rec
	}
	return logs, recs
}

// runWrites executes the stream on c, through the worker runtime when
// worker is true (single producer, so per-shard order matches the
// mutex path).
func runWrites(t *testing.T, c *Cluster, ws []testWrite, worker bool) {
	t.Helper()
	if worker {
		if err := c.StartWorkers(0); err != nil {
			t.Fatal(err)
		}
		defer c.StopWorkers()
		req := NewReq()
		for _, w := range ws {
			switch w.kind {
			case wal.RecFlush:
				if err := c.Reset(); err != nil {
					t.Fatal(err)
				}
			case wal.RecSet:
				req.Kind, req.Key, req.Value = OpSet, w.key, w.value
				c.Enqueue(req)
				req.Wait()
			case wal.RecDel:
				req.Kind, req.Key = OpDelete, w.key
				c.Enqueue(req)
				req.Wait()
			}
		}
		return
	}
	for _, w := range ws {
		switch w.kind {
		case wal.RecFlush:
			if err := c.Reset(); err != nil {
				t.Fatal(err)
			}
		case wal.RecSet:
			c.Set(w.key, w.value)
		case wal.RecDel:
			c.Delete(w.key)
		}
	}
}

// recoverCluster builds a fresh cluster and replays dir's surviving
// streams into it, returning the recovered cluster and apply stats.
func recoverCluster(t *testing.T, dir string, shards int) (*Cluster, RecoveryApplyStats) {
	t.Helper()
	c, err := New(Config{Shards: shards, Engine: durTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	var agg RecoveryApplyStats
	for i := 0; i < shards; i++ {
		l, rec, err := wal.OpenShard(dir, i, wal.FsyncNo)
		if err != nil {
			t.Fatalf("recover shard %d: %v", i, err)
		}
		st, err := c.ApplyRecovery(i, rec)
		if err != nil {
			t.Fatal(err)
		}
		agg = agg.Add(st)
		l.Close()
	}
	return c, agg
}

// assertClustersBitIdentical compares stats, lengths, and the replies
// plus modeled per-op cycles of an identical probe sequence.
func assertClustersBitIdentical(t *testing.T, got, want *Cluster, label string) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats diverged:\ngot  %+v\nwant %+v", label, gs.Agg, ws.Agg)
	}
	for i := 0; i < got.NumShards(); i++ {
		if g, w := got.ShardLen(i), want.ShardLen(i); g != w {
			t.Fatalf("%s: shard %d len %d, want %d", label, i, g, w)
		}
	}
	for id := uint64(0); id < 120; id++ {
		key := ycsb.KeyName(id)
		var og, ow OpOutcome
		vg, okg := got.GetO(key, &og)
		vw, okw := want.GetO(key, &ow)
		if okg != okw || !bytes.Equal(vg, vw) {
			t.Fatalf("%s: key %s reply (%q,%v), want (%q,%v)", label, key, vg, okg, vw, okw)
		}
		if og.Cycles != ow.Cycles || og.FastHit != ow.FastHit {
			t.Fatalf("%s: key %s outcome %+v, want %+v", label, key, og, ow)
		}
	}
}

// TestRecoveryBitForBit pins the tentpole contract: a cluster
// recovered from snapshotless logs is bit-for-bit identical — stats,
// modeled cycles, replies — to a fresh cluster that executed the same
// surviving stream live, for 1-shard and multi-shard clusters in both
// dispatch modes. Timed reads on the original cluster are deliberately
// absent from the log (reads don't mutate), which is exactly why the
// reference is "fresh engine × surviving ops", not the pre-crash
// engine.
func TestRecoveryBitForBit(t *testing.T) {
	const loadN, nOps = 500, 1200
	ws := writeStream(nOps)
	for _, shards := range []int{1, 4} {
		for _, worker := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/worker=%v", shards, worker)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				orig, err := New(Config{Shards: shards, Engine: durTestCfg})
				if err != nil {
					t.Fatal(err)
				}
				logs, _ := openLogs(t, dir, shards, wal.FsyncAlways)
				if err := orig.AttachWAL(logs); err != nil {
					t.Fatal(err)
				}
				orig.Load(loadN, 32)
				runWrites(t, orig, ws, worker)
				// Interleave timed reads: they must not appear in the log.
				for id := uint64(0); id < 50; id++ {
					orig.Get(ycsb.KeyName(id))
				}
				if err := orig.WALErr(); err != nil {
					t.Fatal(err)
				}
				if err := orig.CloseWAL(); err != nil {
					t.Fatal(err)
				}

				recovered, st := recoverCluster(t, dir, shards)
				if st.Loads != loadN || st.Flushes != shards {
					t.Fatalf("apply stats = %+v", st)
				}

				reference, err := New(Config{Shards: shards, Engine: durTestCfg})
				if err != nil {
					t.Fatal(err)
				}
				reference.Load(loadN, 32)
				runWrites(t, reference, ws, false)

				assertClustersBitIdentical(t, recovered, reference, name)
			})
		}
	}
}

// TestWorkerAndMutexProduceIdenticalLogs: the same single-connection
// stream must leave byte-identical per-shard log files whichever
// dispatch mode executed it — group commit batches fsyncs, never
// records.
func TestWorkerAndMutexProduceIdenticalLogs(t *testing.T) {
	const shards, nOps = 2, 800
	ws := writeStream(nOps)
	dirs := map[bool]string{}
	for _, worker := range []bool{false, true} {
		dir := t.TempDir()
		dirs[worker] = dir
		c, err := New(Config{Shards: shards, Engine: durTestCfg})
		if err != nil {
			t.Fatal(err)
		}
		logs, _ := openLogs(t, dir, shards, wal.FsyncEverySec)
		if err := c.AttachWAL(logs); err != nil {
			t.Fatal(err)
		}
		runWrites(t, c, ws, worker)
		if err := c.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard-%d.aof.1", i)
		m, err := os.ReadFile(dirs[false] + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(dirs[true] + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m, w) {
			t.Fatalf("shard %d: worker log (%d B) differs from mutex log (%d B)", i, len(w), len(m))
		}
	}
}

// TestBatchOpsAreLogged: MSET/DEL-style DoBatch calls append their
// per-key records in group order, so recovery of a batch workload
// replays it exactly.
func TestBatchOpsAreLogged(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	c, err := New(Config{Shards: shards, Engine: durTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	logs, _ := openLogs(t, dir, shards, wal.FsyncNo)
	if err := c.AttachWAL(logs); err != nil {
		t.Fatal(err)
	}
	var keys, vals [][]byte
	for i := 0; i < 60; i++ {
		keys = append(keys, fmt.Appendf(nil, "bk-%d", i))
		vals = append(vals, fmt.Appendf(nil, "bv-%d", i))
	}
	if !c.DoBatch(batchReqs(OpSet, keys, vals)) {
		t.Fatal("MSET refused")
	}
	dels := batchReqs(OpDelete, keys[:20], nil)
	if !c.DoBatch(dels) {
		t.Fatal("DEL refused")
	}
	for _, r := range dels {
		if !r.OK {
			t.Fatalf("DEL %s missed", r.Key)
		}
	}
	if err := c.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	recovered, st := recoverCluster(t, dir, shards)
	if st.Sets != 60 || st.Dels != 20 {
		t.Fatalf("apply stats = %+v", st)
	}
	if got := recovered.Len(); got != 40 {
		t.Fatalf("recovered %d keys, want 40", got)
	}
	for i := 20; i < 60; i++ {
		v, ok := recovered.Get(keys[i])
		if !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("key %s = (%q,%v)", keys[i], v, ok)
		}
	}
}

// TestSnapshotMidStreamRecovery: a compacting snapshot taken between
// two halves of a stream must lose nothing and duplicate nothing, and
// recovery from snapshot+tail must be deterministic (two recoveries
// are bit-for-bit identical).
func TestSnapshotMidStreamRecovery(t *testing.T) {
	const shards, nOps = 2, 1000
	ws := writeStream(nOps)
	dir := t.TempDir()
	orig, err := New(Config{Shards: shards, Engine: durTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	logs, _ := openLogs(t, dir, shards, wal.FsyncEverySec)
	if err := orig.AttachWAL(logs); err != nil {
		t.Fatal(err)
	}
	orig.Load(300, 32)
	runWrites(t, orig, ws[:nOps*3/4], false)
	if err := orig.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if st := orig.WAL(i).Stats(); st.Gen != 2 || st.Rewrites != 1 {
			t.Fatalf("shard %d post-snapshot stats %+v", i, st)
		}
	}
	runWrites(t, orig, ws[nOps*3/4:], false)

	// Expected final state, straight off the live engines.
	want := map[string]string{}
	total := 0
	for i := 0; i < shards; i++ {
		orig.Engine(i).RangeRecords(func(k, v []byte) bool {
			want[string(k)] = string(v)
			total++
			return true
		})
	}
	if err := orig.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	recoveredA, _ := recoverCluster(t, dir, shards)
	recoveredB, _ := recoverCluster(t, dir, shards)

	if got := recoveredA.Len(); got != total {
		t.Fatalf("recovered %d keys, want %d", got, total)
	}
	seen := 0
	for i := 0; i < shards; i++ {
		recoveredA.Engine(i).RangeRecords(func(k, v []byte) bool {
			if want[string(k)] != string(v) {
				t.Fatalf("key %q = %q, want %q", k, v, want[string(k)])
			}
			seen++
			return true
		})
	}
	if seen != total {
		t.Fatalf("recovered enumeration saw %d keys, want %d", seen, total)
	}
	assertClustersBitIdentical(t, recoveredB, recoveredA, "double recovery")
}

// TestAttachWALShardMismatch: a cluster must refuse logs written with
// a different shard count instead of silently misrouting replay.
func TestAttachWALShardMismatch(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: durTestCfg})
	if err != nil {
		t.Fatal(err)
	}
	logs, _ := openLogs(t, t.TempDir(), 3, wal.FsyncNo)
	if err := c.AttachWAL(logs); err == nil {
		t.Fatal("3 logs accepted for 2 shards")
	}
	for _, l := range logs {
		l.Close()
	}
}

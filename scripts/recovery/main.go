// Command recovery measures the durability subsystem's recovery time
// across a log-size × snapshot-age matrix and writes the artifact
// consumed by CI as results/BENCH_recovery.json.
//
// Each cell runs a deterministic write stream against a WAL-attached
// cluster, optionally compacting at some point of the stream (the
// "snapshot age" — how much of the stream still sits in the log tail
// after the last snapshot), shuts down cleanly, then times a cold
// recovery: wal.OpenShard plus shard.Cluster.ApplyRecovery per shard.
// The point the matrix makes is the one snapshots exist for: recovery
// time tracks the bytes left in the tail, not the total history — a
// fresh snapshot turns an 80k-op history into a bulk load plus a
// near-empty tail.
//
// Every cell also re-runs recovery into a second cluster and requires
// both recoveries to agree with the live engine's final key count —
// a determinism/completeness gate, exit 1 on violation.
//
// Usage (from the repo root):
//
//	go run ./scripts/recovery -json results/BENCH_recovery.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"addrkv/internal/kv"
	"addrkv/internal/kvproc"
	"addrkv/internal/shard"
	"addrkv/internal/wal"
)

// cell is one matrix point's result.
type cell struct {
	Ops         int     `json:"ops"`
	SnapAge     float64 `json:"snapshot_age_frac"` // fraction of ops after the last snapshot (1 = never snapshotted)
	SnapBytes   int64   `json:"snap_bytes"`
	TailBytes   int64   `json:"tail_bytes"`
	Records     int     `json:"records_replayed"`
	Loads       int     `json:"loads"`
	Sets        int     `json:"sets"`
	Dels        int     `json:"dels"`
	Keys        int     `json:"keys"`
	RecoveryMS  float64 `json:"recovery_ms"`
	MBPerSecond float64 `json:"replay_mb_per_sec"`
}

type artifact struct {
	kvproc.Header
	Matrix []cell `json:"matrix"`
}

func main() {
	var (
		jsonOut = flag.String("json", "results/BENCH_recovery.json", "artifact path")
		shards  = flag.Int("shards", 4, "cluster shard count")
		vsize   = flag.Int("vsize", 64, "value size")
	)
	flag.Parse()

	opsSizes := []int{5_000, 20_000, 80_000}
	// 1.0 = never snapshotted (whole history in the tail); 0.5 = half
	// the stream after the snapshot; 0.05 = freshly compacted.
	snapAges := []float64{1.0, 0.5, 0.05}

	art := artifact{Header: kvproc.Header{
		Name: "recovery",
		Params: map[string]any{
			"shards":     *shards,
			"value_size": *vsize,
			"keys":       5000,
			"cpus":       runtime.NumCPU(),
			"go":         runtime.Version(),
		},
	}}
	for _, ops := range opsSizes {
		for _, age := range snapAges {
			c, err := runCell(ops, age, *shards, *vsize)
			if err != nil {
				log.Fatalf("recovery: ops=%d age=%.2f: %v", ops, age, err)
			}
			art.Matrix = append(art.Matrix, c)
			fmt.Printf("ops=%-6d snap_age=%.2f  snap=%-8d tail=%-8d records=%-6d recovery=%.1fms (%.0f MB/s)\n",
				c.Ops, c.SnapAge, c.SnapBytes, c.TailBytes, c.Records, c.RecoveryMS, c.MBPerSecond)
		}
	}

	if err := kvproc.WriteJSON(*jsonOut, &art); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d cells)\n", *jsonOut, len(art.Matrix))
}

func engineCfg() kv.Config {
	return kv.Config{Keys: 5000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
}

// runCell executes one matrix point.
func runCell(ops int, snapAge float64, shards, vsize int) (cell, error) {
	dir, err := os.MkdirTemp("", "addrkv-recovery-*")
	if err != nil {
		return cell{}, err
	}
	defer os.RemoveAll(dir)

	live, err := shard.New(shard.Config{Shards: shards, Engine: engineCfg()})
	if err != nil {
		return cell{}, err
	}
	logs := make([]*wal.Log, shards)
	for i := 0; i < shards; i++ {
		l, _, err := wal.OpenShard(dir, i, wal.FsyncNo)
		if err != nil {
			return cell{}, err
		}
		logs[i] = l
	}
	if err := live.AttachWAL(logs); err != nil {
		return cell{}, err
	}

	value := make([]byte, vsize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	snapAt := ops - int(snapAge*float64(ops))
	key := make([]byte, 0, 32)
	for i := 0; i < ops; i++ {
		if i == snapAt && snapAt > 0 {
			if err := live.SnapshotAll(); err != nil {
				return cell{}, err
			}
		}
		key = fmt.Appendf(key[:0], "bench-key-%d", i%4000)
		if i%19 == 7 {
			live.Delete(key)
		} else {
			live.Set(key, value)
		}
	}
	if err := live.CloseWAL(); err != nil {
		return cell{}, err
	}

	var snapBytes, tailBytes int64
	for i := 0; i < shards; i++ {
		rec, err := wal.ReadShard(dir, i)
		if err != nil {
			return cell{}, err
		}
		if st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d.snap.%d", i, rec.Gen))); err == nil {
			snapBytes += st.Size()
		}
		tailBytes += rec.TailBytes
	}

	recoverOnce := func() (*shard.Cluster, shard.RecoveryApplyStats, time.Duration, error) {
		c, err := shard.New(shard.Config{Shards: shards, Engine: engineCfg()})
		if err != nil {
			return nil, shard.RecoveryApplyStats{}, 0, err
		}
		var agg shard.RecoveryApplyStats
		start := time.Now()
		for i := 0; i < shards; i++ {
			l, rec, err := wal.OpenShard(dir, i, wal.FsyncNo)
			if err != nil {
				return nil, agg, 0, err
			}
			st, err := c.ApplyRecovery(i, rec)
			l.Close()
			if err != nil {
				return nil, agg, 0, err
			}
			agg = agg.Add(st)
		}
		return c, agg, time.Since(start), nil
	}

	recovered, agg, dt, err := recoverOnce()
	if err != nil {
		return cell{}, err
	}
	again, _, _, err := recoverOnce()
	if err != nil {
		return cell{}, err
	}
	if recovered.Len() != live.Len() || again.Len() != live.Len() {
		return cell{}, fmt.Errorf("recovery gate failed: live %d keys, recoveries %d/%d",
			live.Len(), recovered.Len(), again.Len())
	}

	ms := float64(dt.Nanoseconds()) / 1e6
	mb := float64(snapBytes+tailBytes) / (1 << 20)
	c := cell{
		Ops:        ops,
		SnapAge:    snapAge,
		SnapBytes:  snapBytes,
		TailBytes:  tailBytes,
		Records:    agg.Ops(),
		Loads:      agg.Loads,
		Sets:       agg.Sets,
		Dels:       agg.Dels,
		Keys:       recovered.Len(),
		RecoveryMS: ms,
	}
	if ms > 0 {
		c.MBPerSecond = mb / (ms / 1e3)
	}
	return c, nil
}

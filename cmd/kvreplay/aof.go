// AOF replay: kvreplay as the reference executor of the durability
// subsystem's recovery contract. Records are applied through exactly
// the entry points server recovery uses (shard.Cluster.ApplyRecovery),
// so for any surviving log the stats this command prints are what a
// recovered kvserve would report — the "recovery equals replay"
// property the differential tests pin.
package main

import (
	"fmt"
	"io"
	"os"

	"addrkv"
	"addrkv/internal/shard"
	"addrkv/internal/wal"
)

// runAOF replays an append-only log (directory, single file, or raw
// frames on in) through a fresh simulated System and prints the
// modeled statistics.
func runAOF(cfg replayConfig, in io.Reader, out io.Writer) error {
	isDir := false
	if cfg.file != "" {
		st, err := os.Stat(cfg.file)
		if err != nil {
			return err
		}
		isDir = st.IsDir()
	}

	var recs []*wal.Recovery
	shards := cfg.shards
	if isDir {
		detected, err := wal.DetectShards(cfg.file)
		if err != nil {
			return err
		}
		if detected == 0 {
			return fmt.Errorf("%s holds no shard-*.aof/.snap files", cfg.file)
		}
		switch {
		case shards == 1 || shards == detected:
			shards = detected
		default:
			return fmt.Errorf("%s was written with %d shard(s), -shards says %d", cfg.file, detected, shards)
		}
		for i := 0; i < shards; i++ {
			rec, err := wal.ReadShard(cfg.file, i)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
	} else {
		if shards != 1 {
			return fmt.Errorf("a single AOF stream is one shard's log; use -shards 1 or point -f at the directory")
		}
		var buf []byte
		var err error
		if cfg.file != "" {
			buf, err = os.ReadFile(cfg.file)
		} else {
			buf, err = io.ReadAll(in)
		}
		if err != nil {
			return err
		}
		rec := &wal.Recovery{Gen: 1}
		rec.ScanTail(buf)
		recs = append(recs, rec)
	}

	sys, err := addrkv.New(addrkv.Options{
		Keys:   cfg.keys,
		Shards: shards,
		Index:  addrkv.IndexKind(cfg.index),
		Mode:   addrkv.Mode(cfg.mode),
	})
	if err != nil {
		return err
	}
	var agg shard.RecoveryApplyStats
	for i, rec := range recs {
		if rec.TornBytes > 0 {
			fmt.Fprintf(out, "shard %d: dropped %d torn trailing byte(s): %v\n", i, rec.TornBytes, rec.TornErr)
		}
		st, err := sys.Cluster().ApplyRecovery(i, rec)
		if err != nil {
			return err
		}
		agg = agg.Add(st)
	}

	rep := sys.Report()
	fmt.Fprintf(out, "replayed %d aof records (%d snapshot loads, %d sets, %d dels, %d flushes); %d keys live\n",
		agg.Ops(), agg.Loads, agg.Sets, agg.Dels, agg.Flushes, sys.Len())
	printReport(out, rep)
	if rep.Shards > 1 {
		fmt.Fprintf(out, "cluster: %d shards, max shard cycles %d (modeled wall-clock bound)\n",
			rep.Shards, rep.MaxShardCycles)
	}
	return nil
}

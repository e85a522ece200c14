// Command kvreplay replays a ycsbgen text trace ("GET <key>" /
// "SET <key> <valueSize>" lines) through a simulated System and prints
// the modeled statistics — useful for running *recorded* production
// traces against the STLT design, which is how one would evaluate it
// for a real deployment.
//
// With -shards N the trace is routed across N simulated machines (the
// sharded cluster kvserve runs); per-shard and aggregate statistics
// are reported, including the modeled wall-clock bound (busiest
// shard's cycles).
//
// With -json PATH the run also writes a telemetry snapshot: the
// aggregate RunRecord plus a per-op modeled cycle distribution
// (p50/p99/p999), gathered through the engine's outcome probes —
// which read counters only, so the modeled totals are identical to a
// run without -json. The snapshot carries no timestamps, so for a
// fixed trace and flags it is byte-for-byte reproducible (pinned by
// the golden-file test).
//
// A malformed trace line aborts the replay with exit code 1.
//
// With -format aof the input is an addrkv append-only log instead of a
// text trace: -f may name a kvserve -aof-dir (every shard's snapshot
// and log tail is replayed, shard count auto-detected) or a single
// .aof/.snap file; raw frames can also stream in on stdin. Records are
// applied exactly the way server recovery applies them — snapshot
// loads untimed, tail SET/DEL/FLUSHALL through the timed ops — so
// kvreplay is the reference executor the recovery-equals-replay
// contract is checked against. A torn trailing frame is reported and
// skipped, never an error.
//
//	ycsbgen -keys 200000 -ops 2000000 -dist zipf > trace.txt
//	kvreplay -mode baseline -keys 200000 < trace.txt
//	kvreplay -mode stlt     -keys 200000 -warm 600000 < trace.txt
//	kvreplay -mode stlt     -keys 200000 -shards 4 -json replay.json < trace.txt
//	kvreplay -format aof -keys 200000 -f ./aof -json recovered.json
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"addrkv"
	"addrkv/internal/shard"
	"addrkv/internal/telemetry"
)

// replayConfig shapes one replay run (the parsed flag set).
type replayConfig struct {
	mode    string
	index   string
	keys    int
	shards  int
	vsize   int
	warm    int
	format  string
	file    string
	jsonOut string
}

func main() {
	var (
		cfg  replayConfig
		file string
	)
	flag.StringVar(&cfg.mode, "mode", "stlt", "baseline|stlt|slb|stlt-sw|stlt-va")
	flag.StringVar(&cfg.index, "index", "chainhash", "chainhash|densehash|rbtree|btree|skiplist")
	flag.IntVar(&cfg.keys, "keys", 100_000, "keys to preload (ids 0..keys-1)")
	flag.IntVar(&cfg.shards, "shards", 1, "simulated machines to hash the key space across")
	flag.IntVar(&cfg.vsize, "vsize", 64, "preload value size")
	flag.IntVar(&cfg.warm, "warm", 0, "trace ops to treat as warm-up (stats reset after)")
	flag.StringVar(&file, "f", "", "trace file, or AOF file/directory with -format aof (default stdin)")
	flag.StringVar(&cfg.format, "format", "trace", "trace: ycsbgen text lines; aof: addrkv append-only log")
	flag.StringVar(&cfg.jsonOut, "json", "", "write a telemetry snapshot JSON to this path")
	flag.Parse()

	cfg.file = file
	if cfg.format == "aof" {
		if err := runAOF(cfg, os.Stdin, os.Stdout); err != nil {
			log.Fatalf("kvreplay: %v", err)
		}
		return
	}
	if cfg.format != "trace" {
		log.Fatalf("kvreplay: -format must be trace or aof")
	}
	in := io.Reader(os.Stdin)
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			log.Fatalf("kvreplay: %v", err)
		}
		defer f.Close()
		in = f
	}
	if err := run(cfg, in, os.Stdout); err != nil {
		log.Fatalf("kvreplay: %v", err)
	}
}

// run replays the trace on in, writing the human report to out and,
// when configured, the JSON snapshot to cfg.jsonOut. It returns an
// error (rather than exiting) on a malformed trace so main can map it
// to exit code 1 and tests can assert on it.
func run(cfg replayConfig, in io.Reader, out io.Writer) error {
	sys, err := addrkv.New(addrkv.Options{
		Keys:   cfg.keys,
		Shards: cfg.shards,
		Index:  addrkv.IndexKind(cfg.index),
		Mode:   addrkv.Mode(cfg.mode),
	})
	if err != nil {
		return err
	}
	sys.Load(cfg.keys, cfg.vsize)

	// The cycle histogram costs two atomic adds per op; skip it
	// without -json.
	var cycleHist *telemetry.Histogram
	if cfg.jsonOut != "" {
		cycleHist = &telemetry.Histogram{}
	}
	c := sys.Cluster()
	var req shard.Req // reused: one in-place op at a time

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		ops      int
		setsSeen int
		missing  int
	)
	value := make([]byte, cfg.vsize)
	for sc.Scan() {
		line := sc.Bytes()
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		verb := string(line[:sp])
		rest := line[sp+1:]
		switch verb {
		case "GET":
			req.Kind, req.Key = shard.OpGetTouch, rest
			if c.Do(&req); !req.OK {
				missing++
			}
		case "SET":
			key := rest
			if sp2 := bytes.IndexByte(rest, ' '); sp2 >= 0 {
				key = rest[:sp2]
				if n, err := strconv.Atoi(string(rest[sp2+1:])); err == nil && n != len(value) {
					value = make([]byte, n)
				}
			}
			req.Kind, req.Key, req.Value = shard.OpSet, key, value
			c.Do(&req)
			setsSeen++
		default:
			return fmt.Errorf("bad trace line %q", line)
		}
		if cycleHist != nil {
			cycleHist.Observe(req.Out.Cycles)
		}
		ops++
		if cfg.warm > 0 && ops == cfg.warm {
			sys.MarkMeasurement()
			if cycleHist != nil {
				cycleHist.Reset() // the warm-up ops were not measurement
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	rep := sys.Report()
	fmt.Fprintf(out, "replayed %d ops (%d SETs, %d GET misses)\n", ops, setsSeen, missing)
	fmt.Fprintln(out, rep)
	if rep.Shards > 1 {
		fmt.Fprintf(out, "cluster: %d shards, max shard cycles %d (modeled wall-clock bound), %.3f ops/kcycle\n",
			rep.Shards, rep.MaxShardCycles, 1000*rep.ModeledThroughput())
		for i, st := range rep.PerShard {
			fmt.Fprintf(out, "  shard %d: ops=%d cycles/op=%.0f fastHits=%d\n",
				i, st.Ops, st.CyclesPerOp(), st.FastHits)
		}
	}
	if len(rep.CategoryShare) > 0 {
		fmt.Fprintln(out, "cycle breakdown:")
		for _, cat := range []string{"hash", "traverse", "translate", "data", "stlt", "other"} {
			fmt.Fprintf(out, "  %-10s %5.1f%%\n", cat, 100*rep.CategoryShare[cat])
		}
	}

	if cfg.jsonOut != "" {
		q := telemetry.QuantilesOf(cycleHist.Snapshot())
		fmt.Fprintf(out, "op cycles: p50=%d p99=%d p999=%d max=%d\n", q.P50, q.P99, q.P999, q.Max)
		snap := &telemetry.Snapshot{
			Name: "replay",
			Kind: "replay",
			Params: map[string]any{
				"mode":   cfg.mode,
				"index":  cfg.index,
				"keys":   cfg.keys,
				"shards": cfg.shards,
				"warm":   cfg.warm,
				"ops":    ops,
				"sets":   setsSeen,
				"misses": missing,
			},
			Runs: []telemetry.RunRecord{{
				Spec:           fmt.Sprintf("replay/%s/%s/%d/%d", cfg.mode, cfg.index, cfg.keys, cfg.shards),
				Ops:            rep.Ops,
				Cycles:         rep.Cycles,
				CyclesPerOp:    rep.CyclesPerOp,
				FastPathHits:   rep.Stats.FastHits,
				TableMissRate:  rep.TableMissRate,
				TLBMissesPerOp: rep.TLBMissesPerOp,
				PageWalksPerOp: rep.PageWalksPerOp,
				LLCMissesPerOp: rep.CacheMissesPerOp,
			}},
			Latency: map[string]telemetry.Quantiles{"op_cycles": q},
		}
		if err := snap.WriteFile(cfg.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "(json: %s)\n", cfg.jsonOut)
	}
	return nil
}

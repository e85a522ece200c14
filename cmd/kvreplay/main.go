// Command kvreplay replays a ycsbgen text trace ("GET <key>",
// "SET <key> <valueSize>", "RMW <key> <valueSize>" and
// "SCAN <key> <len>" lines) through a simulated System and prints
// the modeled statistics — useful for running *recorded* production
// traces against the STLT design, which is how one would evaluate it
// for a real deployment.
//
// With -shards N the trace is routed across N simulated machines (the
// sharded cluster kvserve runs); per-shard and aggregate statistics
// are reported, including the modeled wall-clock bound (busiest
// shard's cycles).
//
// The report closes with the exact cycle and fast-hit totals and the
// per-op modeled cycle distribution (count, p50 ... p999, max) of the
// measured window, gathered through the engine's outcome probes —
// which read counters only, so the modeled totals are what an
// unprobed run computes. The report carries no timestamps or wall
// times, so for a fixed trace and flags it is byte-for-byte
// reproducible (pinned by the golden-file tests).
//
// A malformed trace line aborts the replay with exit code 1, and so
// does a SCAN on a hash index, which has no key order to walk. Blank
// lines are skipped.
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
//	kvreplay -mode stlt     -keys 200000 -shards 4 < trace.txt
//	kvreplay -format aof -keys 200000 -f ./aof
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
	mode   string
	index  string
	keys   int
	shards int
	vsize  int
	warm   int
	format string
	file   string
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

// run replays the trace on in, writing the report to out. It returns
// an error (rather than exiting) on a malformed trace so main can map
// it to exit code 1 and tests can assert on it.
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

	var cycleHist telemetry.Histogram
	c := sys.Cluster()
	var req shard.Req // reused: one in-place op at a time

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		ops      int
		setsSeen int
		missing  int
		scanned  int
		outs     []shard.OpOutcome
	)
	value := make([]byte, cfg.vsize)
	get := func(key []byte) uint64 {
		req.Kind, req.Key = shard.OpGetTouch, key
		if c.Do(&req); !req.OK {
			missing++
		}
		return req.Out.Cycles
	}
	set := func(key []byte, n int) uint64 {
		if n >= 0 && n != len(value) {
			value = make([]byte, n)
		}
		req.Kind, req.Key, req.Value = shard.OpSet, key, value
		c.Do(&req)
		setsSeen++
		return req.Out.Cycles
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		verb, rest, ok := bytes.Cut(line, []byte{' '})
		if !ok {
			return fmt.Errorf("bad trace line %q", line)
		}
		key, n := rest, -1
		if k, arg, ok := bytes.Cut(rest, []byte{' '}); ok {
			key = k
			if v, err := strconv.Atoi(string(arg)); err == nil {
				n = v
			}
		}
		var cycles uint64
		switch string(verb) {
		case "GET":
			cycles = get(rest)
		case "SET":
			cycles = set(key, n)
		case "RMW": // a GET then a SET, as Engine.RunOp replays it
			cycles = get(key)
			cycles += set(key, n)
		case "SCAN":
			if n < 0 {
				return fmt.Errorf("bad trace line %q", line)
			}
			outs = outs[:0]
			k, err := c.ScanO(key, n, func([]byte) bool { return true }, &outs)
			if err != nil {
				return fmt.Errorf("trace line %q: %w", line, err)
			}
			scanned += k
			for _, o := range outs {
				cycles += o.Cycles
			}
		default:
			return fmt.Errorf("bad trace line %q", line)
		}
		cycleHist.Observe(cycles)
		ops++
		if cfg.warm > 0 && ops == cfg.warm {
			sys.MarkMeasurement()
			cycleHist.Reset() // the warm-up ops were not measurement
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	rep := sys.Report()
	fmt.Fprintf(out, "replayed %d ops (%d SETs, %d GET misses, %d keys scanned)\n", ops, setsSeen, missing, scanned)
	printReport(out, rep)
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

	q := telemetry.QuantilesOf(cycleHist.Snapshot())
	fmt.Fprintf(out, "op cycles: n=%d p50=%d p90=%d p99=%d p999=%d max=%d\n",
		q.Count, q.P50, q.P90, q.P99, q.P999, q.Max)
	return nil
}

// printReport writes the modeled summary line and the exact totals it
// rounds.
func printReport(out io.Writer, rep addrkv.Report) {
	fmt.Fprintln(out, rep)
	fmt.Fprintf(out, "cycles=%d fastHits=%d\n", rep.Cycles, rep.Stats.FastHits)
}

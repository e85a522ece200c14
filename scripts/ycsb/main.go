// Command ycsb orchestrates the YCSB core-mix matrix: it execs
// prebuilt kvserve and kvbench binaries over a Unix socket, runs the
// standard mixes A–F plus the hot-key flood, and merges the per-run
// kvbench artifacts (plus server-side INFO counters) into one
// BENCH_ycsb.json.
//
// Usage (from the repo root):
//
//	go build -o /tmp/kvserve ./cmd/kvserve
//	go build -o /tmp/kvbench ./cmd/kvbench
//	go run ./scripts/ycsb -kvserve /tmp/kvserve -kvbench /tmp/kvbench \
//	    -json results/BENCH_ycsb.json
//
// Every mix runs against a fresh server on the btree index (workload E
// issues RANGE scans, which need ordered iteration). Workload A is run
// twice — once plain, once with -ttl so every update arms a deadline —
// to exercise the lazy + active expiry paths under realistic traffic.
// The headline is the flood comparison: the same hot-key stream is
// replayed against the STLT's SipHash and xxh3 fast-path hashes in
// interleaved rounds, pinning the hash-quality sensitivity of the
// fast-path hit rate under skew.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
)

// serverStats is the slice of kvserve's INFO output the artifact
// keeps per run (stats are RESETSTATS'd after preload, so they cover
// only benchmark traffic).
type serverStats struct {
	Ops             uint64  `json:"ops"`
	CyclesPerOp     float64 `json:"cycles_per_op"`
	FastPathHitRate float64 `json:"fast_path_hit_rate"`
	TableMissRate   float64 `json:"table_miss_rate"`
	Scans           uint64  `json:"scans"`
	ExpiredKeys     uint64  `json:"expired_keys"`
	EvictedKeys     uint64  `json:"evicted_keys"`
	ExpiresArmed    uint64  `json:"expires_armed"`
}

// mixRun is one workload × server-config benchmark.
type mixRun struct {
	Workload  string      `json:"workload"`
	TTLMillis int64       `json:"ttl_ms,omitempty"`
	FastHash  string      `json:"fast_hash,omitempty"`
	OpsPerSec float64     `json:"ops_per_sec"`
	Ops       uint64      `json:"ops"`
	Server    serverStats `json:"server"`
}

// floodLeg aggregates the interleaved flood rounds for one hash.
type floodLeg struct {
	Hash        string    `json:"hash"`
	Rounds      []float64 `json:"rounds_ops_per_sec"`
	OpsPerSec   float64   `json:"ops_per_sec"`
	HitRate     float64   `json:"fast_path_hit_rate"`
	CyclesPerOp float64   `json:"cycles_per_op"`
}

type headline struct {
	SipHash floodLeg `json:"siphash"`
	Xxh3    floodLeg `json:"xxh3"`
	// Xxh3HitRateDelta is xxh3's fast-path hit rate minus SipHash's on
	// the identical flood stream; the paper's hash choice matters only
	// if this stays ~0 while xxh3 computes cheaper.
	Xxh3HitRateDelta float64 `json:"xxh3_hit_rate_delta"`
}

type matrixArtifact struct {
	kvproc.Header
	Runs     []mixRun `json:"runs"`
	Headline headline `json:"headline"`
}

func main() {
	var (
		kvserve = flag.String("kvserve", "", "path to a built kvserve binary (required)")
		kvbench = flag.String("kvbench", "", "path to a built kvbench binary (required)")
		out     = flag.String("json", "results/BENCH_ycsb.json", "merged artifact path")
		ops     = flag.Int("ops", 40_000, "operations per workload run")
		conns   = flag.Int("conns", 8, "concurrent benchmark connections")
		depth   = flag.Int("depth", 16, "pipeline depth per connection")
		keys    = flag.Int("keys", 10_000, "key-space size (server preloads it)")
		vsize   = flag.Int("vsize", 64, "value size")
		rounds  = flag.Int("rounds", 2, "interleaved SipHash/xxh3 rounds for the flood headline")
	)
	flag.Parse()
	if *kvserve == "" || *kvbench == "" {
		fmt.Fprintln(os.Stderr, "ycsb: -kvserve and -kvbench are required")
		os.Exit(2)
	}

	tmp, err := os.MkdirTemp("", "ycsb-*")
	if err != nil {
		kvproc.Fatal("ycsb", err)
	}
	defer os.RemoveAll(tmp)

	cfg := benchCfg{tmp: tmp, kvserve: *kvserve, kvbench: *kvbench,
		ops: *ops, conns: *conns, depth: *depth, keys: *keys, vsize: *vsize}

	// The A–F sweep, plus workload A with TTLs to drive the expiry
	// machinery (lazy checks on the read half, active sweep on idle).
	var runs []mixRun
	for _, spec := range []mixRun{
		{Workload: "A"},
		{Workload: "A", TTLMillis: 200},
		{Workload: "B"},
		{Workload: "C"},
		{Workload: "D"},
		{Workload: "E"},
		{Workload: "F"},
	} {
		label := spec.Workload
		if spec.TTLMillis > 0 {
			label += fmt.Sprintf("+ttl=%dms", spec.TTLMillis)
		}
		fmt.Printf("== workload %s ==\n", label)
		run, err := cfg.benchOne(spec)
		if err != nil {
			kvproc.Fatal("ycsb", fmt.Errorf("workload %s: %w", label, err))
		}
		runs = append(runs, run)
	}

	// Headline: SipHash vs xxh3 on the flood, interleaved so both
	// hashes sample the same noise regime. Hit rates are deterministic
	// given the trace; ops/sec takes the best round.
	legs := map[string]*floodLeg{
		"sipHash": {Hash: "sipHash"},
		"xxh3":    {Hash: "xxh3"},
	}
	for r := 0; r < *rounds; r++ {
		for _, hash := range []string{"sipHash", "xxh3"} {
			fmt.Printf("== flood round %d/%d: fast-hash %s ==\n", r+1, *rounds, hash)
			run, err := cfg.benchOne(mixRun{Workload: "flood", FastHash: hash})
			if err != nil {
				kvproc.Fatal("ycsb", fmt.Errorf("flood/%s: %w", hash, err))
			}
			leg := legs[hash]
			leg.Rounds = append(leg.Rounds, run.OpsPerSec)
			if run.OpsPerSec > leg.OpsPerSec {
				leg.OpsPerSec = run.OpsPerSec
			}
			leg.HitRate = run.Server.FastPathHitRate
			leg.CyclesPerOp = run.Server.CyclesPerOp
			if r == *rounds-1 {
				runs = append(runs, run)
			}
		}
	}
	hl := headline{SipHash: *legs["sipHash"], Xxh3: *legs["xxh3"]}
	hl.Xxh3HitRateDelta = hl.Xxh3.HitRate - hl.SipHash.HitRate

	art := matrixArtifact{
		Header: kvproc.Header{
			Name: "ycsb",
			Kind: "kvbench-ycsb",
			Params: map[string]any{
				"ops": *ops, "conns": *conns, "depth": *depth,
				"keys": *keys, "vsize": *vsize,
				"index": "btree", "transport": "unix", "seed": 42,
				"rounds": *rounds, "cpus": runtime.NumCPU(),
			},
		},
		Runs:     runs,
		Headline: hl,
	}
	if err := kvproc.WriteJSON(*out, &art); err != nil {
		kvproc.Fatal("ycsb", err)
	}
	fmt.Printf("flood headline: sipHash %.0f ops/sec (hit %.4f), xxh3 %.0f ops/sec (hit %.4f), hit-rate delta %+.4f\n",
		hl.SipHash.OpsPerSec, hl.SipHash.HitRate,
		hl.Xxh3.OpsPerSec, hl.Xxh3.HitRate, hl.Xxh3HitRateDelta)
	fmt.Printf("wrote %s\n", *out)
}

type benchCfg struct {
	tmp, kvserve, kvbench          string
	ops, conns, depth, keys, vsize int
}

// benchOne boots a fresh kvserve for one spec, resets its stats after
// preload, drives kvbench against it, and folds the bench artifact
// plus the server's INFO counters into a mixRun.
func (c benchCfg) benchOne(spec mixRun) (mixRun, error) {
	tag := spec.Workload
	if spec.FastHash != "" {
		tag += "-" + spec.FastHash
	}
	if spec.TTLMillis > 0 {
		tag += "-ttl"
	}
	sock := filepath.Join(c.tmp, "kv-"+tag+".sock")
	args := []string{
		"-sock", sock,
		"-index", "btree",
		"-shards", "4",
		"-preload", "-keys", strconv.Itoa(c.keys), "-vsize", strconv.Itoa(c.vsize),
	}
	if spec.FastHash != "" {
		args = append(args, "-fast-hash", spec.FastHash)
	}
	srv, err := kvproc.Start(c.kvserve, args...)
	if err != nil {
		return mixRun{}, err
	}
	defer srv.Stop()
	cli, err := resp.Dial(srv.Network, srv.Addr)
	if err != nil {
		return mixRun{}, err
	}
	defer cli.Close()
	// Clear preload traffic from the simulated counters so INFO
	// reflects only the benchmark stream.
	if v, err := cli.Do("RESETSTATS"); err != nil || v != "OK" {
		return mixRun{}, fmt.Errorf("RESETSTATS: %v %v", v, err)
	}

	bargs := []string{
		"-sock", sock,
		"-workload", spec.Workload,
		"-ops", strconv.Itoa(c.ops),
		"-conns", strconv.Itoa(c.conns),
		"-depth", strconv.Itoa(c.depth),
		"-keys", strconv.Itoa(c.keys),
		"-vsize", strconv.Itoa(c.vsize),
	}
	if spec.TTLMillis > 0 {
		bargs = append(bargs, "-ttl", fmt.Sprintf("%dms", spec.TTLMillis))
	}
	sweep, err := kvproc.Bench(c.kvbench, bargs...)
	if err != nil {
		return mixRun{}, err
	}
	p := sweep[len(sweep)-1]
	spec.OpsPerSec = p.OpsPerSec
	spec.Ops = p.Ops
	spec.Server, err = scrapeInfo(cli)
	return spec, err
}

// scrapeInfo pulls the per-run counters out of kvserve's INFO reply. A
// counter the artifact reports must be there: an absent one is an error.
func scrapeInfo(cli *resp.Client) (s serverStats, err error) {
	info, err := kvproc.Info(cli, "INFO")
	if err != nil {
		return s, err
	}
	for key, dst := range map[string]*uint64{
		"ops": &s.Ops, "scans": &s.Scans, "expired_keys": &s.ExpiredKeys,
		"evicted_keys": &s.EvictedKeys, "expires_armed": &s.ExpiresArmed,
	} {
		if *dst, err = info.Uint(key); err != nil {
			return s, err
		}
	}
	for key, dst := range map[string]*float64{
		"cycles_per_op": &s.CyclesPerOp, "fast_path_hit_rate": &s.FastPathHitRate,
		"table_miss_rate": &s.TableMissRate,
	} {
		if *dst, err = info.Float(key); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Command throughput orchestrates the kvserve/kvbench matrix and
// merges the per-run kvbench artifacts into one BENCH_throughput.json.
// It execs prebuilt kvserve and kvbench binaries over a Unix socket,
// sweeping three axes:
//
//   - cores:  the server's GOMAXPROCS (set via env), so one artifact
//     captures how the server scales with available parallelism
//   - shards: the engine shard count (one owning worker goroutine per
//     shard)
//   - depth:  the client pipeline depth
//
// Every cell carries ops/sec and p50/p99/p999, and the artifact embeds
// the host fingerprint (internal/hostmeta) so a 1-CPU container
// capture is never misread as a multi-core regression. The matrix
// describes one build; comparing two builds is the repository
// benchmark's job (bench/), which runs them in interleaved pairs.
//
// Usage (from the repo root):
//
//	go build -o /tmp/kvserve ./cmd/kvserve
//	go build -o /tmp/kvbench ./cmd/kvbench
//	go run ./scripts/throughput -kvserve /tmp/kvserve -kvbench /tmp/kvbench \
//	    -json results/BENCH_throughput.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"addrkv/internal/kvproc"
)

// runSpec is one kvserve configuration to benchmark: a cell of the
// cores x shards matrix (depth sweeps inside the cell).
type runSpec struct {
	Cores  int `json:"cores"` // server GOMAXPROCS
	Shards int `json:"shards"`
}

// runResult carries the cell's whole kvbench sweep, percentiles
// included: p50/p99/p999 for every matrix cell, not just ops/sec.
type runResult struct {
	runSpec
	Sweep []kvproc.DepthResult `json:"sweep"`
}

type matrixArtifact struct {
	kvproc.Header
	Runs []runResult `json:"runs"`
}

// depths is the pipeline-depth sweep kvbench runs inside every cell.
const depths = "1,4,16"

func main() {
	var (
		kvserve  = flag.String("kvserve", "", "path to a built kvserve binary (required)")
		kvbench  = flag.String("kvbench", "", "path to a built kvbench binary (required)")
		out      = flag.String("json", "results/BENCH_throughput.json", "merged artifact path")
		ops      = flag.Int("ops", 60_000, "operations per depth point")
		conns    = flag.Int("conns", 16, "concurrent benchmark connections")
		keys     = flag.Int("keys", 10_000, "key-space size (server preloads it)")
		vsize    = flag.Int("vsize", 64, "value size")
		coresArg = flag.String("cores", "", "comma-separated server GOMAXPROCS values (default: 1 and NumCPU, deduped)")
	)
	flag.Parse()
	if *kvserve == "" || *kvbench == "" {
		fmt.Fprintln(os.Stderr, "throughput: -kvserve and -kvbench are required")
		os.Exit(2)
	}
	cores, err := parseCores(*coresArg)
	if err != nil {
		kvproc.Fatal("throughput", err)
	}

	tmp, err := os.MkdirTemp("", "throughput-*")
	if err != nil {
		kvproc.Fatal("throughput", err)
	}
	defer os.RemoveAll(tmp)

	var runs []runResult
	for _, c := range cores {
		for _, shards := range []int{1, 4} {
			spec := runSpec{Cores: c, Shards: shards}
			fmt.Printf("== %d core(s), %d shard(s), depths %s ==\n", c, shards, depths)
			sweep, err := benchOne(tmp, *kvserve, *kvbench, spec, *ops, *conns, *keys, *vsize)
			if err != nil {
				kvproc.Fatal("throughput", fmt.Errorf("cores=%d/shards=%d: %w", c, shards, err))
			}
			runs = append(runs, runResult{runSpec: spec, Sweep: sweep})
		}
	}

	art := matrixArtifact{
		Header: kvproc.Header{
			Name: "throughput",
			Kind: "kvbench-matrix",
			Params: map[string]any{
				"ops": *ops, "conns": *conns, "keys": *keys, "vsize": *vsize,
				"transport": "unix", "get_ratio": 0.9, "seed": 42,
				"cores": cores, "cpus": runtime.NumCPU(),
			},
		},
		Runs: runs,
	}
	if err := kvproc.WriteJSON(*out, &art); err != nil {
		kvproc.Fatal("throughput", err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// parseCores parses -cores; the default sweeps 1 and every hardware
// thread (deduped, ascending), so the artifact shows the scaling trend
// whenever the host can express one.
func parseCores(s string) ([]int, error) {
	if s == "" {
		if n := runtime.NumCPU(); n > 1 {
			return []int{1, n}, nil
		}
		return []int{1}, nil
	}
	var cores []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -cores value %q", part)
		}
		cores = append(cores, c)
	}
	return cores, nil
}

// benchOne boots kvserve for one spec (GOMAXPROCS via env), drives
// kvbench against it, and returns the sweep.
func benchOne(tmp, kvserve, kvbench string, spec runSpec, ops, conns, keys, vsize int) ([]kvproc.DepthResult, error) {
	sock := filepath.Join(tmp, fmt.Sprintf("kv-%d-%d.sock", spec.Cores, spec.Shards))
	srv, err := kvproc.StartEnv([]string{"GOMAXPROCS=" + strconv.Itoa(spec.Cores)}, kvserve,
		"-sock", sock,
		"-shards", fmt.Sprint(spec.Shards),
		"-preload", "-keys", fmt.Sprint(keys), "-vsize", fmt.Sprint(vsize),
	)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	return kvproc.Bench(kvbench,
		"-sock", sock,
		"-sweep", depths,
		"-ops", fmt.Sprint(ops),
		"-conns", fmt.Sprint(conns),
		"-keys", fmt.Sprint(keys),
		"-vsize", fmt.Sprint(vsize),
	)
}

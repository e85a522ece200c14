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
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"addrkv/internal/hostmeta"
	"addrkv/internal/telemetry"
)

// depthPoint mirrors the fields this tool consumes from kvbench's
// depthResult JSON, percentiles included — the merged artifact carries
// p50/p99/p999 for every matrix cell, not just ops/sec.
type depthPoint struct {
	Depth       int                 `json:"depth"`
	Conns       int                 `json:"conns"`
	Ops         uint64              `json:"ops"`
	Errors      uint64              `json:"errors"`
	OpsPerSec   float64             `json:"ops_per_sec"`
	RoundtripUS telemetry.Quantiles `json:"roundtrip_us"`
	LatencyUS   telemetry.Quantiles `json:"latency_us"`
}

type benchArtifact struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params"`
	Sweep  []depthPoint   `json:"sweep"`
}

// runSpec is one kvserve configuration to benchmark: a cell of the
// cores x shards matrix (depth sweeps inside the cell).
type runSpec struct {
	Cores  int `json:"cores"` // server GOMAXPROCS
	Shards int `json:"shards"`
}

type runResult struct {
	runSpec
	Sweep []depthPoint `json:"sweep"`
}

type matrixArtifact struct {
	Name   string         `json:"name"`
	Kind   string         `json:"kind"`
	Host   hostmeta.Meta  `json:"host"`
	Params map[string]any `json:"params"`
	Runs   []runResult    `json:"runs"`
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
		fatal(err)
	}

	tmp, err := os.MkdirTemp("", "throughput-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	var runs []runResult
	for _, c := range cores {
		for _, shards := range []int{1, 4} {
			spec := runSpec{Cores: c, Shards: shards}
			fmt.Printf("== %d core(s), %d shard(s), depths %s ==\n", c, shards, depths)
			sweep, err := benchOne(tmp, *kvserve, *kvbench, spec, *ops, *conns, *keys, *vsize)
			if err != nil {
				fatal(fmt.Errorf("cores=%d/shards=%d: %w", c, shards, err))
			}
			runs = append(runs, runResult{runSpec: spec, Sweep: sweep})
		}
	}

	art := matrixArtifact{
		Name: "throughput",
		Kind: "kvbench-matrix",
		Host: hostmeta.Collect(),
		Params: map[string]any{
			"ops": *ops, "conns": *conns, "keys": *keys, "vsize": *vsize,
			"transport": "unix", "get_ratio": 0.9, "seed": 42,
			"cores": cores, "cpus": runtime.NumCPU(),
		},
		Runs: runs,
	}
	if err := writeJSON(*out, art); err != nil {
		fatal(err)
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
// kvbench against it, and returns the parsed sweep.
func benchOne(tmp, kvserve, kvbench string, spec runSpec, ops, conns, keys, vsize int) ([]depthPoint, error) {
	sock := filepath.Join(tmp, fmt.Sprintf("kv-%d-%d.sock", spec.Cores, spec.Shards))
	srv := exec.Command(kvserve,
		"-sock", sock,
		"-shards", fmt.Sprint(spec.Shards),
		"-preload", "-keys", fmt.Sprint(keys), "-vsize", fmt.Sprint(vsize),
	)
	srv.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(spec.Cores))
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("start kvserve: %w", err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { srv.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			srv.Process.Kill()
			<-done
		}
	}()
	if err := waitSocket(sock, 15*time.Second); err != nil {
		return nil, err
	}

	art := filepath.Join(tmp, fmt.Sprintf("sweep-%d-%d.json", spec.Cores, spec.Shards))
	bench := exec.Command(kvbench,
		"-sock", sock,
		"-sweep", depths,
		"-ops", fmt.Sprint(ops),
		"-conns", fmt.Sprint(conns),
		"-keys", fmt.Sprint(keys),
		"-vsize", fmt.Sprint(vsize),
		"-json", art,
	)
	bench.Stdout = os.Stdout
	bench.Stderr = os.Stderr
	if err := bench.Run(); err != nil {
		return nil, fmt.Errorf("kvbench: %w", err)
	}
	raw, err := os.ReadFile(art)
	if err != nil {
		return nil, err
	}
	var parsed benchArtifact
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, fmt.Errorf("parse %s: %w", art, err)
	}
	for _, p := range parsed.Sweep {
		if p.Errors > 0 {
			return nil, fmt.Errorf("depth %d reported %d errors", p.Depth, p.Errors)
		}
	}
	return parsed.Sweep, nil
}

func waitSocket(path string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if conn, err := net.Dial("unix", path); err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("kvserve socket %s not ready after %s", path, limit)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "throughput:", err)
	os.Exit(1)
}

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
	"bufio"
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
)

// depthPoint mirrors the fields this tool consumes from kvbench's
// depthResult JSON.
type depthPoint struct {
	Depth     int     `json:"depth"`
	Conns     int     `json:"conns"`
	Ops       uint64  `json:"ops"`
	Errors    uint64  `json:"errors"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

type benchArtifact struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params"`
	Sweep  []depthPoint   `json:"sweep"`
}

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
	Name     string         `json:"name"`
	Kind     string         `json:"kind"`
	Params   map[string]any `json:"params"`
	Runs     []mixRun       `json:"runs"`
	Headline headline       `json:"headline"`
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
		fatal(err)
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
			fatal(fmt.Errorf("workload %s: %w", label, err))
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
				fatal(fmt.Errorf("flood/%s: %w", hash, err))
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
		Name: "ycsb",
		Kind: "kvbench-ycsb",
		Params: map[string]any{
			"ops": *ops, "conns": *conns, "depth": *depth,
			"keys": *keys, "vsize": *vsize,
			"index": "btree", "transport": "unix", "seed": 42,
			"rounds": *rounds, "cpus": runtime.NumCPU(),
		},
		Runs:     runs,
		Headline: hl,
	}
	if err := writeJSON(*out, art); err != nil {
		fatal(err)
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
	srv := exec.Command(c.kvserve, args...)
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return mixRun{}, fmt.Errorf("start kvserve: %w", err)
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
		return mixRun{}, err
	}
	// Clear preload traffic from the simulated counters so INFO
	// reflects only the benchmark stream.
	if _, err := command(sock, "RESETSTATS"); err != nil {
		return mixRun{}, fmt.Errorf("resetstats: %w", err)
	}

	art := filepath.Join(c.tmp, "run-"+tag+".json")
	bargs := []string{
		"-sock", sock,
		"-workload", spec.Workload,
		"-ops", strconv.Itoa(c.ops),
		"-conns", strconv.Itoa(c.conns),
		"-depth", strconv.Itoa(c.depth),
		"-keys", strconv.Itoa(c.keys),
		"-vsize", strconv.Itoa(c.vsize),
		"-json", art,
	}
	if spec.TTLMillis > 0 {
		bargs = append(bargs, "-ttl", fmt.Sprintf("%dms", spec.TTLMillis))
	}
	bench := exec.Command(c.kvbench, bargs...)
	bench.Stdout = os.Stdout
	bench.Stderr = os.Stderr
	if err := bench.Run(); err != nil {
		return mixRun{}, fmt.Errorf("kvbench: %w", err)
	}

	stats, err := scrapeInfo(sock)
	if err != nil {
		return mixRun{}, err
	}

	raw, err := os.ReadFile(art)
	if err != nil {
		return mixRun{}, err
	}
	var parsed benchArtifact
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return mixRun{}, fmt.Errorf("parse %s: %w", art, err)
	}
	if len(parsed.Sweep) == 0 {
		return mixRun{}, fmt.Errorf("%s: empty sweep", art)
	}
	p := parsed.Sweep[len(parsed.Sweep)-1]
	if p.Errors > 0 {
		return mixRun{}, fmt.Errorf("workload %s reported %d errors", spec.Workload, p.Errors)
	}
	spec.OpsPerSec = p.OpsPerSec
	spec.Ops = p.Ops
	spec.Server = stats
	return spec, nil
}

// command sends one RESP command and returns the raw reply line or
// bulk payload.
func command(sock string, name string) (string, error) {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "*1\r\n$%d\r\n%s\r\n", len(name), name)
	r := bufio.NewReader(conn)
	head, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	head = strings.TrimRight(head, "\r\n")
	switch {
	case strings.HasPrefix(head, "+"):
		return head[1:], nil
	case strings.HasPrefix(head, "-"):
		return "", fmt.Errorf("%s: %s", name, head[1:])
	case strings.HasPrefix(head, "$"):
		n, err := strconv.Atoi(head[1:])
		if err != nil || n < 0 {
			return "", fmt.Errorf("%s: bad bulk header %q", name, head)
		}
		buf := make([]byte, n+2)
		if _, err := readFull(r, buf); err != nil {
			return "", err
		}
		return string(buf[:n]), nil
	default:
		return "", fmt.Errorf("%s: unexpected reply %q", name, head)
	}
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// scrapeInfo pulls the per-run counters out of kvserve's INFO reply.
func scrapeInfo(sock string) (serverStats, error) {
	text, err := command(sock, "INFO")
	if err != nil {
		return serverStats{}, err
	}
	var s serverStats
	for _, line := range strings.Split(text, "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch k {
		case "ops":
			s.Ops, _ = strconv.ParseUint(v, 10, 64)
		case "cycles_per_op":
			s.CyclesPerOp, _ = strconv.ParseFloat(v, 64)
		case "fast_path_hit_rate":
			s.FastPathHitRate, _ = strconv.ParseFloat(v, 64)
		case "table_miss_rate":
			s.TableMissRate, _ = strconv.ParseFloat(v, 64)
		case "scans":
			s.Scans, _ = strconv.ParseUint(v, 10, 64)
		case "expired_keys":
			s.ExpiredKeys, _ = strconv.ParseUint(v, 10, 64)
		case "evicted_keys":
			s.EvictedKeys, _ = strconv.ParseUint(v, 10, 64)
		case "expires_armed":
			s.ExpiresArmed, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	return s, nil
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
	fmt.Fprintln(os.Stderr, "ycsb:", err)
	os.Exit(1)
}

// Command kvbench is a closed-loop RESP load generator for kvserve.
// It opens -conns connections and drives each with a fixed pipeline
// depth: write -depth commands, flush once, read -depth replies,
// repeat. Because the loop is closed, ops/sec directly measures how
// much per-request overhead (syscalls, flushes, scheduling) pipelining
// amortizes — the real-world win the simulator's cycle model
// deliberately leaves out.
//
//	kvbench -addr 127.0.0.1:6380 -conns 4 -depth 16 -ops 200000
//	kvbench -addr 127.0.0.1:6380 -sweep 1,4,16,64 -json sweep.json
//
// With -sweep, each depth runs as its own measurement point and the
// -json artifact holds the whole sweep (a kvproc.BenchArtifact: the
// kvproc.Header's name/kind/params plus one record per depth).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
	"addrkv/internal/ycsb"
)

// benchConfig shapes one kvbench invocation.
type benchConfig struct {
	network  string // "tcp" or "unix"
	addr     string
	conns    int
	ops      int // total operations per depth point, split across conns
	keys     int // key-space size
	vsize    int // SET value size
	getRatio float64
	seed     uint64
	// cluster treats addr as a cluster seed node: the slot table is
	// bootstrapped from CLUSTER SLOTS and ops are routed per key.
	cluster bool
}

func main() {
	var (
		sock     = flag.String("sock", "", "Unix socket path")
		addr     = flag.String("addr", "", "TCP address")
		conns    = flag.Int("conns", 4, "concurrent connections")
		depth    = flag.Int("depth", 16, "pipeline depth per connection")
		sweep    = flag.String("sweep", "", "comma-separated depths to sweep (overrides -depth)")
		ops      = flag.Int("ops", 100_000, "operations per depth point")
		keys     = flag.Int("keys", 10_000, "key-space size")
		vsize    = flag.Int("vsize", 64, "SET value size")
		getRatio = flag.Float64("get-ratio", 0.9, "fraction of GETs (rest are SETs)")
		seed     = flag.Uint64("seed", 42, "workload seed")
		clus     = flag.Bool("cluster", false, "treat -addr as a cluster seed node: route per key via CLUSTER SLOTS, follow MOVED/ASK")
		jsonPath = flag.String("json", "", "write the sweep artifact to this file")
	)
	flag.Parse()

	if (*sock == "") == (*addr == "") {
		fmt.Fprintln(os.Stderr, "kvbench: exactly one of -sock or -addr is required")
		os.Exit(2)
	}
	cfg := benchConfig{
		network: "unix", addr: *sock,
		conns: *conns, ops: *ops, keys: *keys, vsize: *vsize,
		getRatio: *getRatio, seed: *seed,
	}
	if *addr != "" {
		cfg.network, cfg.addr = "tcp", *addr
	}
	cfg.cluster = *clus
	if cfg.cluster && *addr == "" {
		fmt.Fprintln(os.Stderr, "kvbench: -cluster requires -addr (cluster nodes redirect to TCP addresses)")
		os.Exit(2)
	}
	if cfg.conns < 1 || *depth < 1 || cfg.ops < 1 || cfg.keys < 1 {
		fmt.Fprintln(os.Stderr, "kvbench: -conns, -depth, -ops and -keys must be >= 1")
		os.Exit(2)
	}
	depths := []int{*depth}
	if *sweep != "" {
		var err error
		if depths, err = parseSweep(*sweep); err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
			os.Exit(2)
		}
	}

	results, err := run(cfg, depths, os.Stdout)
	if err != nil {
		log.Fatalf("kvbench: %v", err)
	}
	if *jsonPath != "" {
		if err := writeArtifact(*jsonPath, cfg, depths, results); err != nil {
			log.Fatalf("kvbench: %v", err)
		}
	}
}

// parseSweep parses "1,4,16,64" into pipeline depths.
func parseSweep(s string) ([]int, error) {
	var depths []int
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad sweep depth %q", part)
		}
		depths = append(depths, d)
	}
	return depths, nil
}

// run executes one depth point per entry of depths and reports each on
// out as it completes.
func run(cfg benchConfig, depths []int, out io.Writer) ([]kvproc.DepthResult, error) {
	results := make([]kvproc.DepthResult, 0, len(depths))
	for _, d := range depths {
		r, err := runDepth(cfg, d)
		if err != nil {
			return results, err
		}
		fmt.Fprintf(out, "depth %3d: %9.0f ops/sec  (%d ops, %d conns, %d errors, lat p50 %dus p99 %dus p999 %dus)\n",
			d, r.OpsPerSec, r.Ops, r.Conns, r.Errors, r.LatencyUS.P50, r.LatencyUS.P99, r.LatencyUS.P999)
		if r.Moved+r.Ask+r.TryAgain+r.Repairs > 0 {
			fmt.Fprintf(out, "           redirects: %d moved, %d ask, %d tryagain, %d down-node repairs\n",
				r.Moved, r.Ask, r.TryAgain, r.Repairs)
		}
		results = append(results, r)
	}
	return results, nil
}

// runDepth drives one closed-loop measurement at a fixed pipeline
// depth across cfg.conns connections.
func runDepth(cfg benchConfig, depth int) (kvproc.DepthResult, error) {
	perConn := cfg.ops / cfg.conns
	if perConn == 0 {
		perConn = 1
	}
	var (
		wg       sync.WaitGroup
		done     uint64
		errCount uint64
		rt, lat  telemetry.Histogram
		cc       clusterCounters
		st       slotTable
		firstErr error
		errOnce  sync.Once
	)
	if cfg.cluster {
		if err := st.refresh(cfg.network, cfg.addr); err != nil {
			return kvproc.DepthResult{}, fmt.Errorf("slot table bootstrap: %w", err)
		}
	}
	start := time.Now()
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var n, errs uint64
			var err error
			if cfg.cluster {
				n, errs, err = benchClusterConn(cfg, depth, perConn, cfg.seed+uint64(id)*7919, &rt, &lat, &st, &cc)
			} else {
				n, errs, err = benchConn(cfg, depth, perConn, cfg.seed+uint64(id)*7919, &rt, &lat)
			}
			atomic.AddUint64(&done, n)
			atomic.AddUint64(&errCount, errs)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return kvproc.DepthResult{}, firstErr
	}
	return kvproc.DepthResult{
		Depth:       depth,
		Conns:       cfg.conns,
		Ops:         done,
		Errors:      errCount,
		ElapsedNS:   elapsed.Nanoseconds(),
		OpsPerSec:   float64(done) / elapsed.Seconds(),
		RoundtripUS: telemetry.QuantilesOf(rt.Snapshot()),
		LatencyUS:   telemetry.QuantilesOf(lat.Snapshot()),
		Moved:       cc.moved.Load(),
		Ask:         cc.ask.Load(),
		TryAgain:    cc.tryagain.Load(),
		Repairs:     cc.repairs.Load(),
	}, nil
}

// benchConn runs one connection's closed loop: batches of up to depth
// commands, one flush per batch, then all replies. Returns ops
// completed and error replies seen (protocol or dial errors abort).
func benchConn(cfg benchConfig, depth, ops int, seed uint64, rt, lat *telemetry.Histogram) (uint64, uint64, error) {
	c, err := resp.Dial(cfg.network, cfg.addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	r, w := c.R, c.W
	// One runtime/trace task per connection, one region per pipelined
	// roundtrip: `go tool trace` on a client capture then shows how
	// batches from concurrent connections interleave.
	ctx, task := rtrace.NewTask(context.Background(), "kvbench.conn")
	defer task.End()
	rng := rand.New(rand.NewSource(int64(seed)))

	var sent, errs uint64
	for remaining := ops; remaining > 0; {
		batch := depth
		if remaining < batch {
			batch = remaining
		}
		wrote := 0
		t0 := time.Now()
		rerr := func() error {
			reg := rtrace.StartRegion(ctx, "bench.roundtrip")
			defer reg.End()
			for wrote < batch {
				id := uint64(rng.Intn(cfg.keys))
				key := ycsb.KeyName(id)
				if rng.Float64() < cfg.getRatio {
					err = w.WriteCommand([]byte("GET"), key)
				} else {
					err = w.WriteCommand([]byte("SET"), key, ycsb.Value(id, uint32(sent), cfg.vsize))
				}
				if err != nil {
					return err
				}
				wrote++
			}
			if err := w.Flush(); err != nil {
				return err
			}
			for i := 0; i < wrote; i++ {
				v, err := r.ReadReply()
				if err != nil {
					return fmt.Errorf("read reply: %w", err)
				}
				if _, isErr := v.(error); isErr {
					errs++
				}
				sent++
			}
			return nil
		}()
		if rerr != nil {
			return sent, errs, rerr
		}
		us := uint64(time.Since(t0).Microseconds())
		rt.Observe(us)
		lat.ObserveN(us, uint64(wrote))
		remaining -= wrote
	}
	return sent, errs, nil
}

// writeArtifact writes the sweep JSON artifact, host-stamped so a
// 1-CPU container capture is never mistaken for a multi-core run.
func writeArtifact(path string, cfg benchConfig, depths []int, results []kvproc.DepthResult) error {
	a := kvproc.BenchArtifact{
		Header: kvproc.Header{
			Name: "pipeline-sweep",
			Kind: "kvbench",
			Params: map[string]any{
				"addr":      cfg.addr,
				"conns":     cfg.conns,
				"ops":       cfg.ops,
				"keys":      cfg.keys,
				"vsize":     cfg.vsize,
				"get_ratio": cfg.getRatio,
				"seed":      cfg.seed,
				"cluster":   cfg.cluster,
				"depths":    depths,
			},
		},
		Sweep: results,
	}
	return kvproc.WriteJSON(path, &a)
}

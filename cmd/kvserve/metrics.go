// Telemetry wiring for kvserve: the metrics registry backing the
// Prometheus /metrics endpoint, the SLOWLOG ring, the MONITOR feed,
// and the per-command instrumentation the dispatch loop calls into.
//
// Everything on the record path is lock-free (atomic counters and
// per-shard histograms), and the engine is only ever *read* — modeled
// cycle counts with telemetry attached are bit-for-bit identical to a
// run without it.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"addrkv"
	"addrkv/internal/telemetry"
)

// otherCmd labels the series of verbs the command table does not have.
const otherCmd = "other"

// serverTele bundles the server's telemetry state.
type serverTele struct {
	reg     *telemetry.Registry
	slowlog *telemetry.Slowlog
	feed    *telemetry.Feed

	// Real wall-clock command latency, nanosecond samples.
	latAll *telemetry.Histogram
	cmdLat map[string]*telemetry.Histogram
	// Command counts and protocol errors.
	cmdTotal map[string]*telemetry.Counter
	errTotal *telemetry.Counter
	// Per-shard serving telemetry: op counts and modeled per-op cycle
	// cost distributions (one histogram per shard — each serving
	// goroutine writes its own shard's cache lines).
	shardOps    []*telemetry.Counter
	shardCycles []*telemetry.Histogram
	// Addressing-path outcome counters fed from OpOutcome deltas.
	fastHits  *telemetry.Counter
	fastMiss  *telemetry.Counter
	keyMiss   *telemetry.Counter
	tlbMiss   *telemetry.Counter
	stbHits   *telemetry.Counter
	pageWalks *telemetry.Counter

	// Networking/pipelining telemetry: drained pipeline batches, the
	// commands inside them, their depth distribution, early flushes
	// of a full reply buffer, multi-key batch commands and the
	// keys they carried, and connection accounting.
	pipeBatches *telemetry.Counter
	pipeCmds    *telemetry.Counter
	pipeDepth   *telemetry.Histogram
	earlyFlush  *telemetry.Counter
	batchCmds   *telemetry.Counter
	batchKeys   *telemetry.Counter
	shedConns   *telemetry.Counter
	activeConns atomic.Int64

	// Requests coalesced per worker drain burst (fed by the cluster's
	// drain observer).
	drainSize *telemetry.Histogram

	// view is the snapshot the current /metrics scrape reads: taken once
	// by the scrape hook, read by every table-exported sample (series.go).
	view atomic.Pointer[view]
}

// newServerTele builds the registry and registers the hot-path
// instruments; what is read at scrape time is exported from the series
// table.
func newServerTele(shards, slowlogCap int) *serverTele {
	t := &serverTele{
		reg:      telemetry.NewRegistry(),
		slowlog:  telemetry.NewSlowlog(slowlogCap),
		feed:     telemetry.NewFeed(),
		cmdLat:   map[string]*telemetry.Histogram{},
		cmdTotal: map[string]*telemetry.Counter{},
	}
	r := t.reg
	t.latAll = r.Histogram("addrkv_command_latency_seconds",
		"Real wall-clock latency of RESP commands.", 1e-9, telemetry.Labels{"cmd": "all"})
	perCmd := func(c string) {
		t.cmdTotal[c] = r.Counter("addrkv_commands_total",
			"RESP commands dispatched, by command.", telemetry.Labels{"cmd": c})
		t.cmdLat[c] = r.Histogram("addrkv_command_latency_seconds",
			"Real wall-clock latency of RESP commands.", 1e-9, telemetry.Labels{"cmd": c})
	}
	for i := range commands {
		perCmd(commands[i].name)
	}
	perCmd(otherCmd)
	t.errTotal = r.Counter("addrkv_command_errors_total",
		"Commands rejected with an error reply.", nil)
	t.fastHits = r.Counter("addrkv_fast_path_hits_total",
		"Ops served by the STLT/SLB fast path.", nil)
	t.fastMiss = r.Counter("addrkv_fast_path_misses_total",
		"Ops that fell back to the full indexing structure.", nil)
	t.keyMiss = r.Counter("addrkv_key_misses_total",
		"GET/EXISTS of absent keys.", nil)
	t.tlbMiss = r.Counter("addrkv_tlb_misses_total",
		"Modeled full TLB misses during served ops.", nil)
	t.stbHits = r.Counter("addrkv_stb_hits_total",
		"Modeled STB hits during served ops.", nil)
	t.pageWalks = r.Counter("addrkv_page_walks_total",
		"Modeled page-table walks during served ops.", nil)
	t.pipeBatches = r.Counter("addrkv_pipeline_batches_total",
		"Pipeline drains: bursts of commands read before one flush.", nil)
	t.pipeCmds = r.Counter("addrkv_pipelined_commands_total",
		"Commands arriving inside pipeline drains.", nil)
	t.pipeDepth = r.Histogram("addrkv_pipeline_depth",
		"Commands per drained pipeline batch.", 1, nil)
	t.earlyFlush = r.Counter("addrkv_early_flushes_total",
		"Reply buffers (16 KiB each) written out mid-burst because they filled.", nil)
	t.batchCmds = r.Counter("addrkv_batch_commands_total",
		"Multi-key commands (MGET/MSET/DEL) executed via shard batches.", nil)
	t.batchKeys = r.Counter("addrkv_batched_keys_total",
		"Keys carried by multi-key commands.", nil)
	t.shedConns = r.Counter("addrkv_shed_connections_total",
		"Connections refused at the -maxconns ceiling.", nil)
	t.drainSize = r.Histogram("addrkv_drain_size",
		"Requests coalesced per worker drain burst (cross-connection batching).", 1, nil)
	for i := 0; i < shards; i++ {
		lbl := telemetry.Labels{"shard": strconv.Itoa(i)}
		t.shardOps = append(t.shardOps, r.Counter("addrkv_shard_ops_total",
			"Key ops served, by home shard.", lbl))
		t.shardCycles = append(t.shardCycles, r.Histogram("addrkv_op_cycles",
			"Modeled cycle cost per engine op, by home shard.", 1, lbl))
	}
	return t
}

// observeCmd records one command: wall latency, command counters,
// per-shard cycle cost, outcome counters, the MONITOR feed line, and a
// slowlog offer. c is the command's table row, nil for an unknown verb.
// outs holds one outcome per engine op the command ran — a single-key
// command's one, a multi-key command's one per key, a SCAN/RANGE's one
// per shard walk — and is empty for commands that never reached an
// engine; a denied op's (Shard -1) is skipped. Each op advances its
// shard's op counter and records one sample in its cycle histogram. A
// command that is not a ring verb's one-key form also counts as a batch
// command, and its slowlog detail sums the ops.
func (t *serverTele) observeCmd(c *command, args [][]byte, outs []addrkv.OpOutcome, dur time.Duration, isErr bool) {
	key := otherCmd
	if c != nil {
		key = c.name
	}
	t.cmdTotal[key].Inc()
	ns := uint64(dur.Nanoseconds())
	t.latAll.Observe(ns)
	t.cmdLat[key].Observe(ns)
	if isErr {
		t.errTotal.Inc()
	}
	// shard is the home shard when every op ran on one, -1 otherwise.
	shard, ops := -1, 0
	var cycles, fast, missed, tlb, stb, walks uint64
	for i := range outs {
		oc := &outs[i]
		if oc.Shard < 0 || oc.Shard >= len(t.shardOps) {
			continue
		}
		if ops == 0 {
			shard = oc.Shard
		} else if oc.Shard != shard {
			shard = -1
		}
		ops++
		t.shardOps[oc.Shard].Inc()
		t.shardCycles[oc.Shard].Observe(oc.Cycles)
		cycles += oc.Cycles
		tlb += oc.TLBMisses
		stb += oc.STBHits
		walks += oc.PageWalks
		if oc.FastHit {
			fast++
		}
		if oc.Missed {
			missed++
		}
	}
	batch := false
	if ops > 0 {
		t.tlbMiss.Add(tlb)
		t.stbHits.Add(stb)
		t.pageWalks.Add(walks)
		if c.fastPath {
			if fast > 0 {
				t.fastHits.Add(fast)
			}
			if fast < uint64(ops) {
				t.fastMiss.Add(uint64(ops) - fast)
			}
		}
		if missed > 0 {
			t.keyMiss.Add(missed)
		}
		if batch = !c.rides(len(args)); batch {
			t.batchCmds.Inc()
			t.batchKeys.Add(uint64(ops))
		}
	}
	if t.feed.Active() {
		t.feed.Publish(monitorLine(args, shard))
	}
	// Building a slowlog entry formats arguments and the outcome
	// breakdown (both allocate); skip the construction entirely for
	// commands under the log's floor, keeping the steady-state record
	// path allocation-free.
	if !t.slowlog.Qualifies(dur) {
		return
	}
	detail := ""
	switch {
	case batch:
		seen := make([]bool, len(t.shardOps))
		shards := 0
		for _, oc := range outs {
			if oc.Shard >= 0 && oc.Shard < len(seen) && !seen[oc.Shard] {
				seen[oc.Shard] = true
				shards++
			}
		}
		detail = fmt.Sprintf("shards=%d keys=%d fast_hits=%d misses=%d tlb_misses=%d stb_hits=%d page_walks=%d",
			shards, ops, fast, missed, tlb, stb, walks)
	case ops > 0:
		detail = fmt.Sprintf("fast_hit=%v tlb_misses=%d stb_hits=%d page_walks=%d",
			fast > 0, tlb, stb, walks)
	}
	t.slowlog.Note(telemetry.SlowlogEntry{
		UnixMicro: time.Now().UnixMicro(),
		Duration:  dur,
		Args:      formatArgs(args),
		Shard:     shard,
		Cycles:    cycles,
		Detail:    detail,
	})
}

// formatArgs renders a command for the slowlog / monitor feed,
// truncating long values and long argument lists.
func formatArgs(args [][]byte) []string {
	const maxArgs, maxLen = 8, 48
	out := make([]string, 0, min(len(args), maxArgs+1))
	for i, a := range args {
		if i == maxArgs {
			out = append(out, fmt.Sprintf("... (%d more arguments)", len(args)-maxArgs))
			break
		}
		if len(a) > maxLen {
			out = append(out, fmt.Sprintf("%s... (%d bytes)", a[:maxLen], len(a)))
		} else {
			out = append(out, string(a))
		}
	}
	return out
}

// monitorLine formats one command for the MONITOR feed, Redis-style.
func monitorLine(args [][]byte, shard int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.6f [shard %d]", float64(time.Now().UnixMicro())/1e6, shard)
	for _, a := range formatArgs(args) {
		fmt.Fprintf(&b, " %q", a)
	}
	return b.String()
}

// resetWindow clears the stats-window histograms (RESETSTATS) and the
// slowlog: the slowest ops of the warmup phase are exactly what a
// fresh measurement window must not keep reporting. Counters stay
// monotonic for Prometheus rate() queries.
func (t *serverTele) resetWindow() {
	t.latAll.Reset()
	for _, h := range t.cmdLat {
		h.Reset()
	}
	for _, h := range t.shardCycles {
		h.Reset()
	}
	t.pipeDepth.Reset()
	t.slowlog.Reset()
}

// startMetricsServer serves /metrics (Prometheus text), /snapshot.json
// (a telemetry.Snapshot of the current window), and net/http/pprof
// under /debug/pprof/ on addr. It returns the bound listener address
// (addr may be ":0").
func startMetricsServer(addr string, s *server) (*http.Server, net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.tele.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.benchSnapshot()
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(append(b, '\n'))
	})
	if s.clus != nil {
		mux.HandleFunc("/cluster/metrics", s.clusterMetricsHandler)
		mux.HandleFunc("/cluster/snapshot.json", s.clusterSnapshotHandler)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// benchSnapshot renders the current stats window as a JSON snapshot
// (the /snapshot.json payload).
func (s *server) benchSnapshot() *telemetry.Snapshot {
	v := s.view()
	return &telemetry.Snapshot{
		Name:     "kvserve",
		Kind:     "server",
		UnixTime: time.Now().Unix(),
		Params: map[string]any{
			"shards": v.rep.Shards,
		},
		Runs: []telemetry.RunRecord{{
			Spec:           "live",
			Ops:            v.rep.Ops,
			Cycles:         v.rep.Cycles,
			CyclesPerOp:    v.rep.CyclesPerOp,
			FastPathHits:   v.rep.Stats.FastHits,
			TableMissRate:  v.rep.TableMissRate,
			TLBMissesPerOp: v.rep.TLBMissesPerOp,
			PageWalksPerOp: v.rep.PageWalksPerOp,
			LLCMissesPerOp: v.rep.CacheMissesPerOp,
		}},
		Latency: map[string]telemetry.Quantiles{"wall_ns": v.lat, "op_cycles": v.cyc},
	}
}

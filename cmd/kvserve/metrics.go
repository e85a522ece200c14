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
	"sync"
	"sync/atomic"
	"time"

	"addrkv"
	"addrkv/internal/shard"
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

	// Worker-runtime telemetry: requests coalesced per drain burst
	// (fed by the cluster's drain observer) plus scrape-time gauges
	// over the per-shard worker counters.
	drainSize *telemetry.Histogram

	// Scrape-time cache: one Report per /metrics scrape feeds all the
	// hit-rate/cycles-per-op gauges below.
	mu     sync.Mutex
	rep    addrkv.Report
	keys   []int
	wstats []shard.WorkerStats
}

// newServerTele builds the registry and registers every metric.
func newServerTele(sys *addrkv.System, slowlogCap int) *serverTele {
	shards := sys.Cluster().NumShards()
	t := &serverTele{
		reg:      telemetry.NewRegistry(),
		slowlog:  telemetry.NewSlowlog(slowlogCap),
		feed:     telemetry.NewFeed(),
		cmdLat:   map[string]*telemetry.Histogram{},
		cmdTotal: map[string]*telemetry.Counter{},
		keys:     make([]int, shards),
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
		"Reply buffers (-writebuf) written out mid-burst because they filled.", nil)
	t.batchCmds = r.Counter("addrkv_batch_commands_total",
		"Multi-key commands (MGET/MSET/DEL) executed via shard batches.", nil)
	t.batchKeys = r.Counter("addrkv_batched_keys_total",
		"Keys carried by multi-key commands.", nil)
	t.shedConns = r.Counter("addrkv_shed_connections_total",
		"Connections refused at the -maxconns ceiling.", nil)
	t.drainSize = r.Histogram("addrkv_drain_size",
		"Requests coalesced per worker drain burst (cross-connection batching).", 1, nil)
	r.GaugeFunc("addrkv_active_connections", "Currently served connections.", nil,
		func() float64 { return float64(t.activeConns.Load()) })
	for i := 0; i < shards; i++ {
		lbl := telemetry.Labels{"shard": strconv.Itoa(i)}
		t.shardOps = append(t.shardOps, r.Counter("addrkv_shard_ops_total",
			"Key ops served, by home shard.", lbl))
		t.shardCycles = append(t.shardCycles, r.Histogram("addrkv_op_cycles",
			"Modeled cycle cost per engine op, by home shard.", 1, lbl))
	}

	// Engine-derived gauges: one Report snapshot per scrape (the
	// OnScrape hook) feeds them all.
	r.OnScrape(func() {
		rep := sys.Report()
		keys := make([]int, shards)
		for i := 0; i < shards; i++ {
			keys[i] = sys.Cluster().ShardLen(i)
		}
		ws := sys.Cluster().RuntimeStats()
		t.mu.Lock()
		t.rep, t.keys, t.wstats = rep, keys, ws
		t.mu.Unlock()
	})
	repGauge := func(name, help string, f func(addrkv.Report) float64) {
		r.GaugeFunc(name, help, nil, func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return f(t.rep)
		})
	}
	repGauge("addrkv_engine_ops", "Engine ops since RESETSTATS.",
		func(rep addrkv.Report) float64 { return float64(rep.Ops) })
	repGauge("addrkv_cycles_per_op", "Modeled mean cycles per op since RESETSTATS.",
		func(rep addrkv.Report) float64 { return rep.CyclesPerOp })
	repGauge("addrkv_fast_path_hit_rate", "Fraction of GETs served by the STLT/SLB fast path.",
		func(rep addrkv.Report) float64 { return rep.FastPathHitRate })
	repGauge("addrkv_table_miss_rate", "STLT (or SLB) table miss ratio.",
		func(rep addrkv.Report) float64 { return rep.TableMissRate })
	repGauge("addrkv_tlb_misses_per_op", "Modeled full TLB misses per op.",
		func(rep addrkv.Report) float64 { return rep.TLBMissesPerOp })
	repGauge("addrkv_page_walks_per_op", "Modeled page walks per op.",
		func(rep addrkv.Report) float64 { return rep.PageWalksPerOp })
	repGauge("addrkv_llc_misses_per_op", "Modeled LLC misses (DRAM demand) per op.",
		func(rep addrkv.Report) float64 { return rep.CacheMissesPerOp })
	repGauge("addrkv_modeled_ops_per_kcycle", "Ops per thousand modeled wall-clock cycles.",
		func(rep addrkv.Report) float64 { return 1000 * rep.ModeledThroughput() })
	repGauge("addrkv_scans_total", "SCAN/RANGE ops since RESETSTATS.",
		func(rep addrkv.Report) float64 { return float64(rep.Scans) })
	repGauge("addrkv_expired_keys_total", "Keys reaped by TTL expiry (lazy + sweep) since RESETSTATS.",
		func(rep addrkv.Report) float64 { return float64(rep.Expired) })
	repGauge("addrkv_evicted_keys_total", "Keys evicted by the maxmemory LFU policy since RESETSTATS.",
		func(rep addrkv.Report) float64 { return float64(rep.Evicted) })
	r.GaugeFunc("addrkv_expires_armed", "Keys currently carrying a TTL deadline.", nil,
		func() float64 { return float64(sys.ExpiresArmed()) })
	r.GaugeFunc("addrkv_used_bytes", "Record bytes tracked by the eviction policy (0 without -maxmemory).", nil,
		func() float64 { return float64(sys.UsedBytes()) })
	for i := 0; i < shards; i++ {
		i := i
		lbl := telemetry.Labels{"shard": strconv.Itoa(i)}
		r.GaugeFunc("addrkv_shard_fast_hit_rate",
			"Per-shard fast-path hit rate.", lbl, func() float64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				if i >= len(t.rep.PerShard) || t.rep.PerShard[i].Gets == 0 {
					return 0
				}
				st := t.rep.PerShard[i]
				return float64(st.FastHits) / float64(st.Gets)
			})
		r.GaugeFunc("addrkv_shard_cycles_per_op",
			"Per-shard modeled cycles per op.", lbl, func() float64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				if i >= len(t.rep.PerShard) {
					return 0
				}
				return t.rep.PerShard[i].CyclesPerOp()
			})
		r.GaugeFunc("addrkv_shard_keys",
			"Keys stored, by shard.", lbl, func() float64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				return float64(t.keys[i])
			})
	}
	for i := 0; i < shards; i++ {
		i := i
		r.GaugeFunc("addrkv_queue_depth",
			"Requests queued in the shard worker's ring.",
			telemetry.Labels{"shard": strconv.Itoa(i)}, func() float64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				if i >= len(t.wstats) {
					return 0
				}
				return float64(t.wstats[i].Depth)
			})
	}
	workerGauge := func(name, help string, f func(shard.WorkerStats) uint64) {
		r.GaugeFunc(name, help, nil, func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			var sum uint64
			for _, st := range t.wstats {
				sum += f(st)
			}
			return float64(sum)
		})
	}
	workerGauge("addrkv_worker_drains_total", "Worker drain bursts across all shards.",
		func(st shard.WorkerStats) uint64 { return st.Drains })
	workerGauge("addrkv_worker_drained_ops_total", "Requests completed by worker drains.",
		func(st shard.WorkerStats) uint64 { return st.DrainedOps })
	workerGauge("addrkv_queue_full_spins_total", "Producer yields on a full worker ring.",
		func(st shard.WorkerStats) uint64 { return st.FullSpins })
	r.GaugeFunc("addrkv_slowlog_len", "Entries in the slowlog.", nil,
		func() float64 { return float64(t.slowlog.Len()) })
	r.GaugeFunc("addrkv_monitor_clients", "Attached MONITOR clients.", nil,
		func() float64 { return float64(t.feed.Subscribers()) })
	r.GaugeFunc("addrkv_monitor_dropped_total", "MONITOR lines dropped on slow clients.", nil,
		func() float64 { return float64(t.feed.Dropped()) })
	return t
}

// observeCmd records one command: wall latency, command counters,
// per-shard cycle cost, outcome counters, the MONITOR feed line, and a
// slowlog offer. c is the command's table row, nil for an unknown verb.
// oc is a single-key command's outcome. For multi-key commands bo
// carries the exact per-shard batch deltas (and its merged view — total
// cycles, home shard or -1 — stands in for oc); each shard's op counter
// advances by its share of the batch, and its cycle histogram records
// one sample per shard sub-batch. Both are nil or empty for commands
// that never reached an engine.
func (t *serverTele) observeCmd(c *command, args [][]byte, oc *addrkv.OpOutcome, bo *addrkv.BatchOutcome, dur time.Duration, isErr bool) {
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
	shard := -1
	var cycles uint64
	isBatch := bo != nil && len(bo.PerShard) > 0
	isOp := !isBatch && oc != nil && oc.Shard >= 0 && oc.Shard < len(t.shardOps)
	switch {
	case isBatch:
		merged := bo.Merged()
		oc = &merged
		shard, cycles = oc.Shard, oc.Cycles
		for _, sb := range bo.PerShard {
			if sb.Shard < 0 || sb.Shard >= len(t.shardOps) {
				continue
			}
			t.shardOps[sb.Shard].Add(uint64(sb.Ops))
			t.shardCycles[sb.Shard].Observe(sb.Cycles)
			t.tlbMiss.Add(sb.TLBMisses)
			t.stbHits.Add(sb.STBHits)
			t.pageWalks.Add(sb.PageWalks)
			if c.fastPath {
				t.fastHits.Add(sb.FastHits)
				t.fastMiss.Add(uint64(sb.Ops) - sb.FastHits)
			}
			t.keyMiss.Add(sb.Misses)
		}
		t.batchCmds.Inc()
		t.batchKeys.Add(uint64(bo.TotalOps()))
	case isOp:
		shard, cycles = oc.Shard, oc.Cycles
		t.shardOps[oc.Shard].Inc()
		t.shardCycles[oc.Shard].Observe(oc.Cycles)
		t.tlbMiss.Add(oc.TLBMisses)
		t.stbHits.Add(oc.STBHits)
		t.pageWalks.Add(oc.PageWalks)
		if c.fastPath {
			if oc.FastHit {
				t.fastHits.Inc()
			} else {
				t.fastMiss.Inc()
			}
		}
		if oc.Missed {
			t.keyMiss.Inc()
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
	case isBatch:
		detail = fmt.Sprintf("shards=%d keys=%d fast_hits=%d misses=%d tlb_misses=%d stb_hits=%d page_walks=%d",
			len(bo.PerShard), bo.TotalOps(), batchFastHits(bo), batchMisses(bo),
			oc.TLBMisses, oc.STBHits, oc.PageWalks)
	case isOp:
		detail = fmt.Sprintf("fast_hit=%v tlb_misses=%d stb_hits=%d page_walks=%d",
			oc.FastHit, oc.TLBMisses, oc.STBHits, oc.PageWalks)
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

// batchFastHits and batchMisses sum outcome fields over a batch.
func batchFastHits(bo *addrkv.BatchOutcome) uint64 {
	var n uint64
	for _, sb := range bo.PerShard {
		n += sb.FastHits
	}
	return n
}

func batchMisses(bo *addrkv.BatchOutcome) uint64 {
	var n uint64
	for _, sb := range bo.PerShard {
		n += sb.Misses
	}
	return n
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

// latencySnapshot merges per-command wall latency into one snapshot.
func (t *serverTele) latencySnapshot() telemetry.HistSnapshot {
	return t.latAll.Snapshot()
}

// cycleSnapshot merges the per-shard op-cycle histograms.
func (t *serverTele) cycleSnapshot() telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	for _, h := range t.shardCycles {
		s.Merge(h.Snapshot())
	}
	return s
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

// registerTraceMetrics exposes the span tracer's state on /metrics.
// The gauges read s.tracer at scrape time, so main() swapping in the
// flag-configured tracer after newServer needs no re-registration.
func (t *serverTele) registerTraceMetrics(s *server) {
	t.reg.GaugeFunc("addrkv_trace_sample_every", "1-in-N trace sampling rate (0 = off).", nil,
		func() float64 { return float64(s.tracer.Sample()) })
	t.reg.GaugeFunc("addrkv_traced_ops_total", "Ops completed with a trace span attached.", nil,
		func() float64 { return float64(s.tracer.Traced()) })
	t.reg.GaugeFunc("addrkv_trace_anomalies_total", "Flight-recorder anomaly trigger firings.", nil,
		func() float64 { return float64(s.tracer.AnomalyCount()) })
	t.reg.GaugeFunc("addrkv_trace_auto_dumps_total", "Auto-dumps requested by anomaly triggers.", nil,
		func() float64 { return float64(s.tracer.Dumps()) })
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
	s.statsMu.RLock()
	rep := s.sys.Report()
	s.statsMu.RUnlock()
	return &telemetry.Snapshot{
		Name:     "kvserve",
		Kind:     "server",
		UnixTime: time.Now().Unix(),
		Params: map[string]any{
			"shards": rep.Shards,
		},
		Runs: []telemetry.RunRecord{reportRecord("live", rep)},
		Latency: map[string]telemetry.Quantiles{
			"wall_ns":   telemetry.QuantilesOf(s.tele.latencySnapshot()),
			"op_cycles": telemetry.QuantilesOf(s.tele.cycleSnapshot()),
		},
	}
}

// reportRecord converts an addrkv.Report into a RunRecord.
func reportRecord(spec string, rep addrkv.Report) telemetry.RunRecord {
	return telemetry.RunRecord{
		Spec:           spec,
		Ops:            rep.Ops,
		Cycles:         rep.Cycles,
		CyclesPerOp:    rep.CyclesPerOp,
		FastPathHits:   rep.Stats.FastHits,
		TableMissRate:  rep.TableMissRate,
		TLBMissesPerOp: rep.TLBMissesPerOp,
		PageWalksPerOp: rep.PageWalksPerOp,
		LLCMissesPerOp: rep.CacheMissesPerOp,
	}
}

// THE series table of kvserve: every quantity the server reports is
// declared once here — its text key and format verb, its Prometheus
// family and HELP, and ONE getter — and every reporting surface renders
// from that declaration: INFO, CLUSTER INFO, CLUSTER HEARTBEAT STATUS
// and CLUSTER MIGRATE STATUS through renderText, /metrics through
// exportSeries, CLUSTER HEALTH and /cluster/metrics through the fleet
// rows at the end. A new quantity is one row; a surface cannot list a
// field another forgot, and cannot spell it differently.
//
// Node rows read a view: the one snapshot s.view() takes under
// statsMu.RLock, so no surface — /metrics included — can mix the two
// sides of a RESETSTATS. Not rendered from the table, on purpose: the
// hot-path instruments (the Counter/Histogram fields of serverTele
// register their own families; a row that shows one just reads it), the
// JSON snapshots (each is one struct declaration already, decoded by
// struct in kvtop and scripts/health), health.Digest's wire encoding,
// TRACE STATUS and SLOWLOG.
package main

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"addrkv"
	"addrkv/internal/cluster"
	"addrkv/internal/health"
	"addrkv/internal/shard"
	"addrkv/internal/telemetry"
	"addrkv/internal/wal"
)

// row declares one reported quantity over a source S.
type row[S any] struct {
	// key and verb render the text field "key:value" ("" = no text
	// field); a %d in key is the shard index.
	key, verb string
	// fam and help export it ("" = not exported). A family named
	// *_total is a counter, every other one a gauge.
	fam, help string
	// get reads the value from src (i is the shard index in per-shard
	// rows), as an integer, float or string type so integers print from
	// integers. nil drops the text field and the fleet sample; /metrics
	// cannot drop a registered sample and reads 0.
	get func(src S, i int) any
}

// indexed fills the shard index into a key or title that has one.
func indexed(s string, i int) string { return strings.Replace(s, "%d", strconv.Itoa(i), 1) }

// writeFields appends the text fields of rows, each followed by sep.
func writeFields[S any](b *strings.Builder, rows []row[S], src S, i int, sep string) {
	for _, r := range rows {
		if r.key == "" {
			continue
		}
		if v := r.get(src, i); v != nil {
			fmt.Fprintf(b, "%s:"+r.verb+"%s", indexed(r.key, i), v, sep)
		}
	}
}

// sample converts a getter's value into a Prometheus sample.
func sample(v any) float64 {
	switch rv := reflect.ValueOf(v); {
	case rv.CanInt():
		return float64(rv.Int())
	case rv.CanUint():
		return float64(rv.Uint())
	case rv.CanFloat():
		return rv.Float()
	}
	return 0
}

// famType is the TYPE of a table-exported family.
func famType(fam string) string {
	if strings.HasSuffix(fam, "_total") {
		return "counter"
	}
	return "gauge"
}

// view is one consistent snapshot of what the node rows read. Counters
// that only ever grow are read live through s; everything RESETSTATS
// clears, and everything derived from more than one read, is copied.
type view struct {
	s  *server
	cl *clusterState // nil standalone

	rep       addrkv.Report
	serverOps uint64
	keys      []int // per shard
	armed     int
	used      int64
	ws        []shard.WorkerStats // nil while the worker runtime is down
	wal       []wal.Stats         // per shard; nil without -aof

	lat, cyc, depth telemetry.Quantiles
	shardCyc        []telemetry.Quantiles

	nodes []health.NodeHealth       // cluster mode
	mig   cluster.MigrationProgress // zero until a migration has run here
	migOK bool
}

// view collects the snapshot every reporting surface renders from — the
// one place reporting reads sys.Report(). Read-only: no modeled cycle
// is charged, so a scraped or heartbeating run stays bit-for-bit
// identical to a silent one.
func (s *server) view() *view {
	c := s.sys.Cluster()
	v := &view{s: s, cl: s.clus, keys: make([]int, c.NumShards())}
	s.statsMu.RLock()
	defer s.statsMu.RUnlock()
	v.rep = s.sys.Report()
	v.serverOps = s.opsSinceMark.Load()
	for i := range v.keys {
		v.keys[i] = c.ShardLen(i)
	}
	v.armed, v.used = s.sys.ExpiresArmed(), s.sys.UsedBytes()
	v.ws, v.wal = c.RuntimeStats(), s.walStats()
	v.lat = telemetry.QuantilesOf(s.tele.latAll.Snapshot())
	v.depth = telemetry.QuantilesOf(s.tele.pipeDepth.Snapshot())
	var all telemetry.HistSnapshot
	for _, h := range s.tele.shardCycles {
		snap := h.Snapshot()
		v.shardCyc = append(v.shardCyc, telemetry.QuantilesOf(snap))
		all.Merge(snap)
	}
	v.cyc = telemetry.QuantilesOf(all)
	if v.cl != nil {
		v.nodes = v.cl.health.Snapshot()
		v.mig, v.migOK = v.cl.node.Progress()
	}
	return v
}

// surface is a set of text surfaces a section is rendered on.
type surface uint8

const (
	onInfo surface = 1 << iota
	onClusterInfo
	onHeartbeat // CLUSTER HEARTBEAT STATUS
	onMigrate   // CLUSTER MIGRATE STATUS
)

// group says which servers have a section at all: its text is absent
// and its families unregistered on the others.
type group int

const (
	always group = iota
	withAOF
	withCluster
)

// section is a run of node rows under an optional "# title" line.
type section struct {
	title    string
	on       surface
	when     group
	perShard bool // rendered, and exported, once per shard
	rows     []row[*view]
}

func (v *view) has(g group) bool {
	return g == always || g == withAOF && v.s.persist != nil || g == withCluster && v.cl != nil
}

// renderText renders the sections of one text surface as CRLF lines.
func renderText(v *view, on surface) string {
	var b strings.Builder
	for _, sec := range series {
		if sec.on&on == 0 || !v.has(sec.when) {
			continue
		}
		n := 1
		if sec.perShard {
			n = len(v.keys)
		}
		for i := 0; i < n; i++ {
			if sec.title != "" {
				b.WriteString(indexed(sec.title, i) + "\r\n")
			}
			writeFields(&b, sec.rows, v, i, "\r\n")
		}
	}
	return b.String()
}

// exportSeries registers group g's families on /metrics: one sample per
// row, one per shard, labelled, in a per-shard section, each read from
// the view newServer's scrape hook caches. newServer exports what every
// server has; the AOF and cluster set-up export theirs once attached.
func (s *server) exportSeries(g group) {
	for _, sec := range series {
		if sec.when != g {
			continue
		}
		n := 1
		if sec.perShard {
			n = s.sys.Cluster().NumShards()
		}
		for _, r := range sec.rows {
			if r.fam == "" {
				continue
			}
			register := s.tele.reg.GaugeFunc
			if famType(r.fam) == "counter" {
				register = s.tele.reg.CounterFunc
			}
			for i := 0; i < n; i++ {
				var lbl telemetry.Labels
				if sec.perShard {
					lbl = telemetry.Labels{"shard": strconv.Itoa(i)}
				}
				register(r.fam, r.help, lbl, func() float64 { return sample(r.get(s.tele.view.Load(), i)) })
			}
		}
	}
}

// Getter shorthands for the shapes that repeat.

// workerSum sums a counter over the shard workers; nil while the runtime
// is down, which reduces "# runtime" to queue_cap on a reference server.
func workerSum(f func(shard.WorkerStats) uint64) func(*view, int) any {
	return func(v *view, _ int) any {
		if v.ws == nil {
			return nil
		}
		var sum uint64
		for _, st := range v.ws {
			sum += f(st)
		}
		return sum
	}
}

// logSum sums a counter over the per-shard logs.
func logSum(f func(wal.Stats) uint64) func(*view, int) any {
	return func(v *view, _ int) any {
		var sum uint64
		for _, st := range v.wal {
			sum += f(st)
		}
		return sum
	}
}

// nodesIn counts the cluster nodes the tracker classifies as st.
func nodesIn(st health.State) func(*view, int) any {
	return func(v *view, _ int) any {
		n := 0
		for _, nh := range v.nodes {
			if nh.State == st {
				n++
			}
		}
		return n
	}
}

// us renders a nanosecond quantity in microseconds.
func us(ns uint64) float64 { return float64(ns) / 1e3 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// series is the node table, in INFO order.
var series = []section{
	{title: "# addrkv simulated statistics (since RESETSTATS)", on: onInfo, rows: []row[*view]{
		{"shards", "%d", "", "", func(v *view, _ int) any { return v.rep.Shards }},
		{"server_ops", "%d", "", "", func(v *view, _ int) any { return v.serverOps }},
		{"ops", "%d", "addrkv_engine_ops", "Engine ops since RESETSTATS.",
			func(v *view, _ int) any { return v.rep.Ops }},
		{"cycles", "%d", "", "", func(v *view, _ int) any { return v.rep.Cycles }},
		{"max_shard_cycles", "%d", "", "", func(v *view, _ int) any { return v.rep.MaxShardCycles }},
		{"cycles_per_op", "%.1f", "addrkv_cycles_per_op", "Modeled mean cycles per op since RESETSTATS.",
			func(v *view, _ int) any { return v.rep.CyclesPerOp }},
		{"modeled_ops_per_kcycle", "%.3f", "addrkv_modeled_ops_per_kcycle", "Ops per thousand modeled wall-clock cycles.",
			func(v *view, _ int) any { return 1000 * v.rep.ModeledThroughput() }},
		{"tlb_misses_per_op", "%.3f", "addrkv_tlb_misses_per_op", "Modeled full TLB misses per op.",
			func(v *view, _ int) any { return v.rep.TLBMissesPerOp }},
		{"page_walks_per_op", "%.3f", "addrkv_page_walks_per_op", "Modeled page walks per op.",
			func(v *view, _ int) any { return v.rep.PageWalksPerOp }},
		{"llc_misses_per_op", "%.3f", "addrkv_llc_misses_per_op", "Modeled LLC misses (DRAM demand) per op.",
			func(v *view, _ int) any { return v.rep.CacheMissesPerOp }},
		{"fast_path_hit_rate", "%.4f", "addrkv_fast_path_hit_rate", "Fraction of GETs served by the STLT/SLB fast path.",
			func(v *view, _ int) any { return v.rep.FastPathHitRate }},
		{"table_miss_rate", "%.4f", "addrkv_table_miss_rate", "STLT (or SLB) table miss ratio.",
			func(v *view, _ int) any { return v.rep.TableMissRate }},
		{"scans", "%d", "addrkv_scans_total", "SCAN/RANGE ops since RESETSTATS.",
			func(v *view, _ int) any { return v.rep.Scans }},
		{"expired_keys", "%d", "addrkv_expired_keys_total", "Keys reaped by TTL expiry (lazy + sweep) since RESETSTATS.",
			func(v *view, _ int) any { return v.rep.Expired }},
		{"evicted_keys", "%d", "addrkv_evicted_keys_total", "Keys evicted by the maxmemory LFU policy since RESETSTATS.",
			func(v *view, _ int) any { return v.rep.Evicted }},
		{"expires_armed", "%d", "addrkv_expires_armed", "Keys currently carrying a TTL deadline.",
			func(v *view, _ int) any { return v.armed }},
		{"used_bytes", "%d", "addrkv_used_bytes", "Record bytes tracked by the eviction policy (0 without -maxmemory).",
			func(v *view, _ int) any { return v.used }},
	}},
	{title: "# latency (real wall clock, since RESETSTATS)", on: onInfo, rows: []row[*view]{
		{"latency_samples", "%d", "", "", func(v *view, _ int) any { return v.lat.Count }},
		{"latency_mean_us", "%.1f", "", "", func(v *view, _ int) any { return v.lat.Mean / 1e3 }},
		{"latency_p50_us", "%.1f", "", "", func(v *view, _ int) any { return us(v.lat.P50) }},
		{"latency_p90_us", "%.1f", "", "", func(v *view, _ int) any { return us(v.lat.P90) }},
		{"latency_p99_us", "%.1f", "", "", func(v *view, _ int) any { return us(v.lat.P99) }},
		{"latency_p999_us", "%.1f", "", "", func(v *view, _ int) any { return us(v.lat.P999) }},
		{"latency_max_us", "%.1f", "", "", func(v *view, _ int) any { return us(v.lat.Max) }},
		{"op_cycles_p50", "%d", "", "", func(v *view, _ int) any { return v.cyc.P50 }},
		{"op_cycles_p99", "%d", "", "", func(v *view, _ int) any { return v.cyc.P99 }},
		{"op_cycles_max", "%d", "", "", func(v *view, _ int) any { return v.cyc.Max }},
		{"slowlog_len", "%d", "addrkv_slowlog_len", "Entries in the slowlog.",
			func(v *view, _ int) any { return v.s.tele.slowlog.Len() }},
		{"monitor_clients", "%d", "addrkv_monitor_clients", "Attached MONITOR clients.",
			func(v *view, _ int) any { return v.s.tele.feed.Subscribers() }},
		{"", "", "addrkv_monitor_dropped_total", "MONITOR lines dropped on slow clients.",
			func(v *view, _ int) any { return v.s.tele.feed.Dropped() }},
	}},
	{title: "# networking", on: onInfo, rows: []row[*view]{
		{"active_conns", "%d", "addrkv_active_connections", "Currently served connections.",
			func(v *view, _ int) any { return v.s.tele.activeConns.Load() }},
		{"shed_conns", "%d", "", "", func(v *view, _ int) any { return v.s.tele.shedConns.Load() }},
		{"pipeline_batches", "%d", "", "", func(v *view, _ int) any { return v.s.tele.pipeBatches.Load() }},
		{"pipelined_commands", "%d", "", "", func(v *view, _ int) any { return v.s.tele.pipeCmds.Load() }},
		{"pipeline_depth_mean", "%.2f", "", "", func(v *view, _ int) any { return v.depth.Mean }},
		{"pipeline_depth_p99", "%d", "", "", func(v *view, _ int) any { return v.depth.P99 }},
		{"pipeline_depth_max", "%d", "", "", func(v *view, _ int) any { return v.depth.Max }},
		{"early_flushes", "%d", "", "", func(v *view, _ int) any { return v.s.tele.earlyFlush.Load() }},
		{"batch_commands", "%d", "", "", func(v *view, _ int) any { return v.s.tele.batchCmds.Load() }},
		{"batched_keys", "%d", "", "", func(v *view, _ int) any { return v.s.tele.batchKeys.Load() }},
	}},
	{title: "# expiry", on: onInfo, rows: []row[*view]{
		{"sweep_cycles", "%d", "addrkv_expiry_sweep_cycles_total", "Active-expiry ticker cycles completed.",
			func(v *view, _ int) any { return v.s.sweepCycles.Load() }},
		{"sweep_reaped_total", "%d", "addrkv_expiry_sweep_reaped_total", "Keys reaped by the active-expiry ticker.",
			func(v *view, _ int) any { return v.s.sweepReaped.Load() }},
		{"sweep_last_reaped", "%d", "", "", func(v *view, _ int) any { return v.s.sweepLastReaped.Load() }},
	}},
	{title: "# runtime", on: onInfo, rows: []row[*view]{
		{"queue_cap", "%d", "", "", func(v *view, _ int) any { return v.s.queueCap }},
		{"queue_depth", "%d", "", "", workerSum(func(st shard.WorkerStats) uint64 { return uint64(st.Depth) })},
		{"worker_drains", "%d", "addrkv_worker_drains_total", "Worker drain bursts across all shards.",
			workerSum(func(st shard.WorkerStats) uint64 { return st.Drains })},
		{"worker_drained_ops", "%d", "addrkv_worker_drained_ops_total", "Requests completed by worker drains.",
			workerSum(func(st shard.WorkerStats) uint64 { return st.DrainedOps })},
		{"drain_mean", "%.2f", "", "", func(v *view, _ int) any {
			if v.ws == nil {
				return nil
			}
			var drains, ops uint64
			for _, st := range v.ws {
				drains, ops = drains+st.Drains, ops+st.DrainedOps
			}
			if drains == 0 {
				return 0.0
			}
			return float64(ops) / float64(drains)
		}},
		{"drain_max", "%d", "addrkv_worker_drain_max", "Largest single worker drain burst on any shard.", func(v *view, _ int) any {
			if v.ws == nil {
				return nil
			}
			var most uint64
			for _, st := range v.ws {
				most = max(most, st.MaxBurst)
			}
			return most
		}},
		{"queue_full_spins", "%d", "addrkv_queue_full_spins_total", "Producer yields on a full worker ring.",
			workerSum(func(st shard.WorkerStats) uint64 { return st.FullSpins })},
	}},
	{title: "# persistence", on: onInfo, rows: []row[*view]{
		{"aof_enabled", "%d", "", "", func(v *view, _ int) any { return b2i(v.s.persist != nil) }},
	}},
	{on: onInfo, when: withAOF, rows: []row[*view]{
		{"aof_fsync", "%s", "", "", func(v *view, _ int) any { return v.s.persist.policy }},
		{"aof_size_bytes", "%d", "", "", logSum(func(st wal.Stats) uint64 { return uint64(st.SizeBytes) })},
		{"aof_appends", "%d", "", "", logSum(func(st wal.Stats) uint64 { return st.Appends })},
		{"aof_commits", "%d", "addrkv_aof_commits_total", "AOF group commits (one write per worker drain burst), all shards.",
			logSum(func(st wal.Stats) uint64 { return st.Commits })},
		{"aof_extends", "%d", "addrkv_aof_extends_total", "AOF commits that also zero-filled a step of tail (their barrier paid a journal commit), all shards.",
			logSum(func(st wal.Stats) uint64 { return st.Extends })},
		{"aof_padding_bytes", "%d", "addrkv_aof_padding_bytes", "Zero-filled bytes ahead of the AOF write position, all shards.",
			logSum(func(st wal.Stats) uint64 { return uint64(st.AllocBytes - st.SizeBytes) })},
		{"aof_fsyncs", "%d", "", "", logSum(func(st wal.Stats) uint64 { return st.Fsyncs })},
		{"aof_fsync_mean_us", "%.1f", "", "", func(v *view, _ int) any {
			var n, ns uint64
			for _, st := range v.wal {
				n, ns = n+st.Fsyncs, ns+st.FsyncNS
			}
			if n == 0 {
				return nil
			}
			return float64(ns) / float64(n) / 1e3
		}},
		{"aof_rewrites", "%d", "", "", logSum(func(st wal.Stats) uint64 { return st.Rewrites })},
		{"bgsave_in_progress", "%d", "addrkv_bgsave_in_progress", "1 while a background save is running.",
			func(v *view, _ int) any { return b2i(v.s.persist.saving.Load()) }},
		{"bgsaves_ok", "%d", "addrkv_bgsaves_total", "Completed background saves.",
			func(v *view, _ int) any { return v.s.persist.saves.Load() }},
		{"bgsaves_err", "%d", "addrkv_bgsave_errors_total", "Failed background saves.",
			func(v *view, _ int) any { return v.s.persist.saveErrs.Load() }},
		{"last_save_unix", "%d", "", "", func(v *view, _ int) any { return lastSaveUnix(v.wal) }},
		{"recovered_records", "%d", "", "", func(v *view, _ int) any { return v.s.persist.recovered.Ops() }},
		{"recovered_torn_bytes", "%d", "addrkv_recovered_torn_bytes", "Torn trailing AOF bytes dropped by the last recovery.",
			func(v *view, _ int) any { return v.s.persist.tornBytes }},
	}},
	{on: onInfo, when: withAOF, perShard: true, rows: []row[*view]{
		{"aof_shard%d_gen", "%d", "addrkv_aof_generation", "Current AOF/snapshot generation, by shard.",
			func(v *view, i int) any { return v.wal[i].Gen }},
		{"aof_shard%d_size_bytes", "%d", "addrkv_aof_size_bytes", "Current AOF segment size, by shard.",
			func(v *view, i int) any { return v.wal[i].SizeBytes }},
		{"", "", "addrkv_aof_appends_total", "Records appended to the AOF, by shard.",
			func(v *view, i int) any { return v.wal[i].Appends }},
		{"", "", "addrkv_aof_fsyncs_total", "AOF fsync barriers, by shard.",
			func(v *view, i int) any { return v.wal[i].Fsyncs }},
		{"", "", "addrkv_aof_rewrites_total", "Compacting snapshot rewrites, by shard.",
			func(v *view, i int) any { return v.wal[i].Rewrites }},
		{"", "", "addrkv_aof_last_save_timestamp_seconds", "Unix time of the shard's last completed snapshot.",
			func(v *view, i int) any { return float64(v.wal[i].LastSaveUnixNS) / 1e9 }},
	}},
	{on: onClusterInfo, when: withCluster, rows: []row[*view]{
		{"cluster_state", "%s", "", "", func(v *view, _ int) any { return v.cl.stateName() }},
		{"", "", "addrkv_cluster_degraded", "1 when any slot-owning node is suspect or down.",
			func(v *view, _ int) any { return b2i(v.cl.degraded()) }},
	}},
	// cluster_gets_total/cluster_fast_hits_total sum the per-shard
	// counters so clients can sample the STLT hit rate over a window (the
	// migration warm-up cliff measurement).
	{title: "# cluster", on: onInfo | onClusterInfo, when: withCluster, rows: []row[*view]{
		{"cluster_enabled", "%d", "", "", func(v *view, _ int) any { return 1 }},
		{"cluster_node_index", "%d", "", "", func(v *view, _ int) any { return v.cl.node.Self() }},
		{"cluster_known_nodes", "%d", "", "", func(v *view, _ int) any { return len(v.nodes) }},
		{"cluster_addr", "%s", "", "", func(v *view, _ int) any { return v.cl.node.Map().Nodes[v.cl.node.Self()].Addr }},
		{"cluster_bus_addr", "%s", "", "", func(v *view, _ int) any { return v.cl.bus.Addr() }},
		{"cluster_map_version", "%d", "addrkv_cluster_map_version", "Installed slot map epoch.",
			func(v *view, _ int) any { return v.cl.node.Version() }},
		{"cluster_slots_owned", "%d", "addrkv_cluster_slots_owned", "Hash slots owned by this node.",
			func(v *view, _ int) any { return v.cl.node.OwnedSlots() }},
		{"cluster_slots_migrating", "%d", "addrkv_cluster_slots_migrating", "Slots currently leaving this node.",
			func(v *view, _ int) any { return len(v.cl.node.MigratingSlots()) }},
		{"cluster_slots_importing", "%d", "addrkv_cluster_slots_importing", "Slots currently arriving at this node.",
			func(v *view, _ int) any { return len(v.cl.node.ImportingSlots()) }},
		{"cluster_moved_total", "%d", "addrkv_cluster_moved_total", "MOVED redirects answered.",
			func(v *view, _ int) any { return v.cl.node.Metrics.Moved.Load() }},
		{"cluster_ask_total", "%d", "addrkv_cluster_ask_total", "ASK redirects answered.",
			func(v *view, _ int) any { return v.cl.node.Metrics.Asked.Load() }},
		{"cluster_asking_total", "%d", "addrkv_cluster_asking_total", "ASKING commands accepted.",
			func(v *view, _ int) any { return v.cl.node.Metrics.Asking.Load() }},
		{"cluster_tryagain_total", "%d", "addrkv_cluster_tryagain_total", "TRYAGAIN answers.",
			func(v *view, _ int) any { return v.cl.node.Metrics.TryAgain.Load() }},
		{"cluster_migrations_started", "%d", "addrkv_cluster_migrations_started_total", "Slot migrations started from this node.",
			func(v *view, _ int) any { return v.cl.node.Metrics.MigStarted.Load() }},
		{"cluster_migrations_completed", "%d", "addrkv_cluster_migrations_completed_total", "Slot migrations committed from this node.",
			func(v *view, _ int) any { return v.cl.node.Metrics.MigCompleted.Load() }},
		{"cluster_migrations_failed", "%d", "addrkv_cluster_migrations_failed_total", "Slot migration attempts from this node that errored.",
			func(v *view, _ int) any { return v.cl.node.Metrics.MigFailed.Load() }},
		{"cluster_migrated_keys", "%d", "addrkv_cluster_migrated_keys_total", "Records shipped out by slot migrations.",
			func(v *view, _ int) any { return v.cl.node.Metrics.MigKeys.Load() }},
		{"cluster_migrated_bytes", "%d", "addrkv_cluster_migrated_bytes_total", "Frame bytes shipped out by slot migrations.",
			func(v *view, _ int) any { return v.cl.node.Metrics.MigBytes.Load() }},
		{"cluster_import_batches", "%d", "addrkv_cluster_import_batches_total", "Migration batches installed by slot imports.",
			func(v *view, _ int) any { return v.cl.node.Metrics.ImpBatches.Load() }},
		{"cluster_import_records", "%d", "addrkv_cluster_import_records_total", "Records installed by slot imports.",
			func(v *view, _ int) any { return v.cl.node.Metrics.ImpRecords.Load() }},
		{"cluster_import_rewarmed", "%d", "addrkv_cluster_import_rewarmed_total", "STLT rows re-warmed during slot imports.",
			func(v *view, _ int) any { return v.cl.node.Metrics.ImpRewarmed.Load() }},
		{"cluster_last_migration_slot", "%d", "", "", func(v *view, _ int) any { return v.cl.node.Metrics.LastMigSlot.Load() }},
		{"cluster_last_migration_us", "%d", "", "", func(v *view, _ int) any { return v.cl.node.Metrics.LastMigUS.Load() }},
		{"cluster_bus_requests", "%d", "addrkv_cluster_bus_requests_total", "Node-to-node bus requests served.",
			func(v *view, _ int) any { return v.cl.bus.Served() }},
		{"cluster_gets_total", "%d", "", "", func(v *view, _ int) any { return v.rep.Stats.Gets }},
		{"cluster_fast_hits_total", "%d", "", "", func(v *view, _ int) any { return v.rep.Stats.FastHits }},
	}},
	// The heartbeat rows: INFO and CLUSTER INFO show them under these
	// keys, CLUSTER HEARTBEAT STATUS without the cluster_ prefix — and is
	// the only surface with the down-after threshold.
	{on: onInfo | onClusterInfo | onHeartbeat, when: withCluster, rows: []row[*view]{
		{"cluster_heartbeat_enabled", "%d", "", "", func(v *view, _ int) any { return b2i(v.cl.hbEvery > 0) }},
		{"cluster_heartbeat_on", "%d", "", "", func(v *view, _ int) any { return b2i(v.cl.hbOn.Load()) }},
		{"cluster_heartbeat_interval_ms", "%.0f", "", "", func(v *view, _ int) any { return float64(v.cl.hbEvery) / 1e6 }},
	}},
	{on: onHeartbeat, when: withCluster, rows: []row[*view]{
		{"cluster_heartbeat_down_after", "%d", "", "", func(v *view, _ int) any { return v.cl.health.DownAfter() }},
	}},
	{on: onInfo | onClusterInfo | onHeartbeat, when: withCluster, rows: []row[*view]{
		{"cluster_heartbeats_sent", "%d", "addrkv_cluster_heartbeats_sent_total", "Heartbeat frames acked by peers.",
			func(v *view, _ int) any { return v.cl.hbSent.Load() }},
		{"cluster_heartbeat_failures", "%d", "addrkv_cluster_heartbeat_failures_total", "Heartbeat calls that errored.",
			func(v *view, _ int) any { return v.cl.hbFails.Load() }},
	}},
	{on: onInfo | onClusterInfo, when: withCluster, rows: []row[*view]{
		{"cluster_nodes_ok", "%d", "", "", nodesIn(health.StateOK)},
		{"cluster_nodes_suspect", "%d", "addrkv_cluster_nodes_suspect", "Peers currently classified suspect.",
			nodesIn(health.StateSuspect)},
		{"cluster_nodes_down", "%d", "addrkv_cluster_nodes_down", "Peers currently classified down.",
			nodesIn(health.StateDown)},
		{"cluster_node_states", "%s", "", "", func(v *view, _ int) any {
			states := make([]string, len(v.nodes))
			for i, nh := range v.nodes {
				states[i] = fmt.Sprintf("%d=%s", nh.Node, nh.State)
			}
			return strings.Join(states, ",")
		}},
	}},
	// The source-side view of the current (or most recent) slot
	// migration: CLUSTER MIGRATE STATUS once one has run, zero-valued
	// samples before.
	{on: onMigrate, when: withCluster, rows: []row[*view]{
		{"migration_slot", "%d", "addrkv_cluster_migration_slot", "Slot of the current/last migration.",
			func(v *view, _ int) any { return v.mig.Slot }},
		{"migration_dest", "%d", "", "", func(v *view, _ int) any { return v.mig.Dest }},
		{"migration_active", "%d", "addrkv_cluster_migration_active", "1 while a slot migration is running here.",
			func(v *view, _ int) any { return b2i(v.mig.Active) }},
		{"migration_resumed", "%d", "", "", func(v *view, _ int) any { return b2i(v.mig.Resumed) }},
		{"migration_failed", "%d", "", "", func(v *view, _ int) any { return b2i(v.mig.Failed) }},
		{"migration_keys_total", "%d", "addrkv_cluster_migration_keys_total", "Records in the migration's work list.",
			func(v *view, _ int) any { return v.mig.KeysTotal }},
		{"migration_keys_shipped", "%d", "addrkv_cluster_migration_keys_shipped", "Records shipped so far.",
			func(v *view, _ int) any { return v.mig.KeysShipped }},
		{"migration_keys_remaining", "%d", "", "", func(v *view, _ int) any { return v.mig.KeysTotal - v.mig.KeysShipped }},
		{"migration_batches_total", "%d", "", "", func(v *view, _ int) any { return v.mig.BatchesTotal }},
		{"migration_batches_shipped", "%d", "addrkv_cluster_migration_batches_shipped", "Batches shipped so far.",
			func(v *view, _ int) any { return v.mig.BatchesShipped }},
		{"migration_bytes", "%d", "addrkv_cluster_migration_bytes", "Frame bytes shipped so far.",
			func(v *view, _ int) any { return v.mig.Bytes }},
		{"migration_elapsed_us", "%d", "", "", func(v *view, _ int) any { return v.mig.Elapsed.Microseconds() }},
		{"", "", "addrkv_cluster_migration_elapsed_seconds", "Elapsed wall time of the migration.",
			func(v *view, _ int) any { return v.mig.Elapsed.Seconds() }},
		{"migration_eta_us", "%d", "", "", func(v *view, _ int) any { return v.mig.ETA.Microseconds() }},
		{"", "", "addrkv_cluster_migration_eta_seconds", "Estimated remaining ship time (0 when idle).",
			func(v *view, _ int) any { return v.mig.ETA.Seconds() }},
	}},
	{title: "# tracing", on: onInfo, rows: []row[*view]{
		{"trace_sample_every", "%d", "addrkv_trace_sample_every", "1-in-N trace sampling rate (0 = off).",
			func(v *view, _ int) any { return v.s.tracer.Sample() }},
		{"trace_ops", "%d", "addrkv_traced_ops_total", "Ops completed with a trace span attached.",
			func(v *view, _ int) any { return v.s.tracer.Traced() }},
		{"trace_anomalies", "%d", "addrkv_trace_anomalies_total", "Flight-recorder anomaly trigger firings.",
			func(v *view, _ int) any { return v.s.tracer.AnomalyCount() }},
		{"trace_auto_dumps", "%d", "addrkv_trace_auto_dumps_total", "Auto-dumps requested by anomaly triggers.",
			func(v *view, _ int) any { return v.s.tracer.Dumps() }},
		{"trace_warm_phase", "%v", "", "", func(v *view, _ int) any { return v.s.tracer.Warm() }},
	}},
	{title: "# shard %d", on: onInfo, perShard: true, rows: []row[*view]{
		{"shard%d_ops", "%d", "", "", func(v *view, i int) any { return v.rep.PerShard[i].Ops }},
		{"shard%d_keys", "%d", "addrkv_shard_keys", "Keys stored, by shard.",
			func(v *view, i int) any { return v.keys[i] }},
		{"shard%d_cycles", "%d", "", "", func(v *view, i int) any { return uint64(v.rep.PerShard[i].Machine.Cycles) }},
		{"shard%d_cycles_per_op", "%.1f", "addrkv_shard_cycles_per_op", "Per-shard modeled cycles per op.",
			func(v *view, i int) any { return v.rep.PerShard[i].CyclesPerOp() }},
		{"shard%d_fast_hits", "%d", "", "", func(v *view, i int) any { return v.rep.PerShard[i].FastHits }},
		{"shard%d_fast_hit_rate", "%.4f", "addrkv_shard_fast_hit_rate", "Per-shard fast-path hit rate.", func(v *view, i int) any {
			st := v.rep.PerShard[i]
			if st.Gets == 0 {
				return nil
			}
			return float64(st.FastHits) / float64(st.Gets)
		}},
		{"shard%d_cycles_p99", "%d", "", "", func(v *view, i int) any { return v.shardCyc[i].P99 }},
		{"", "", "addrkv_queue_depth", "Requests queued in the shard worker's ring.", func(v *view, i int) any {
			if v.ws == nil {
				return nil
			}
			return v.ws[i].Depth
		}},
	}},
}

// fleetNode is one node's slice of an aggregated fleet view: the local
// tracker's liveness verdict plus (for reachable nodes) a fresh digest.
type fleetNode struct {
	Node   int
	Info   cluster.NodeInfo
	State  health.State
	Age    time.Duration
	Beats  uint64
	Up     bool           // digest fetched (self always; down peers never dialed)
	Digest *health.Digest // nil when !Up
}

// digest reads a field of a reachable node's digest. A node that is
// down or did not answer has none: its digest fields leave the CLUSTER
// HEALTH line and its digest series leave the scrape instead of
// freezing at stale values.
func digest(f func(d *health.Digest, i int) any) func(fleetNode, int) any {
	return func(fn fleetNode, i int) any {
		if fn.Digest == nil {
			return nil
		}
		return f(fn.Digest, i)
	}
}

// fleetRows are the per-node fields of CLUSTER HEALTH (one line per
// node, fields separated by spaces) and the node="i" series of
// /cluster/metrics.
var fleetRows = []row[fleetNode]{
	{"node", "%d", "", "", func(fn fleetNode, _ int) any { return fn.Node }},
	{"addr", "%s", "", "", func(fn fleetNode, _ int) any { return fn.Info.Addr }},
	{"bus", "%s", "", "", func(fn fleetNode, _ int) any { return fn.Info.Bus }},
	{"state", "%s", "", "", func(fn fleetNode, _ int) any { return fn.State }},
	{"", "", "addrkv_fleet_state", "Node liveness: 0 ok, 1 suspect, 2 down.",
		func(fn fleetNode, _ int) any { return int(fn.State) }},
	{"age_ms", "%.0f", "", "", func(fn fleetNode, _ int) any { return float64(fn.Age) / 1e6 }},
	{"", "", "addrkv_fleet_age_seconds", "Time since the node was last heard from (0 for self).",
		func(fn fleetNode, _ int) any { return fn.Age.Seconds() }},
	{"beats", "%d", "addrkv_fleet_beats_total", "Heartbeats/acks observed from the node.",
		func(fn fleetNode, _ int) any { return fn.Beats }},
	{"up", "%d", "addrkv_fleet_up", "1 when the node answered digest collection (self included).",
		func(fn fleetNode, _ int) any { return b2i(fn.Up) }},
	{"map_version", "%d", "addrkv_fleet_map_version", "Slot map epoch installed at the node.",
		digest(func(d *health.Digest, _ int) any { return d.MapVersion })},
	{"slots_owned", "%d", "addrkv_fleet_slots_owned", "Hash slots owned by the node.",
		digest(func(d *health.Digest, _ int) any { return d.SlotsOwned })},
	{"slots_migrating", "%d", "addrkv_fleet_slots_migrating", "Slots currently leaving the node.",
		digest(func(d *health.Digest, _ int) any { return d.SlotsMigrating })},
	{"slots_importing", "%d", "addrkv_fleet_slots_importing", "Slots currently arriving at the node.",
		digest(func(d *health.Digest, _ int) any { return d.SlotsImporting })},
	{"ops", "%d", "addrkv_fleet_ops", "Engine ops since the node's RESETSTATS.",
		digest(func(d *health.Digest, _ int) any { return d.Ops })},
	{"keys", "%d", "addrkv_fleet_keys", "Keys resident at the node.",
		digest(func(d *health.Digest, _ int) any { return d.Keys })},
	{"used_bytes", "%d", "addrkv_fleet_used_bytes", "Record bytes tracked by the node's eviction policy.",
		digest(func(d *health.Digest, _ int) any { return d.UsedBytes })},
	{"hit_rate", "%.4f", "addrkv_fleet_hit_rate", "Node-wide STLT/SLB fast-path hit rate.",
		digest(func(d *health.Digest, _ int) any { return d.HitRate() })},
	{"queue_depth", "%d", "addrkv_fleet_queue_depth", "Worker ring depth summed over the node's shards.",
		digest(func(d *health.Digest, _ int) any { return d.QueueDepth() })},
	{"ops_per_sec", "%.1f", "addrkv_fleet_ops_per_sec", "Node-reported op rate over its heartbeat window.",
		digest(func(d *health.Digest, _ int) any { return d.OpsPerSec })},
	{"lat_p50_us", "%.1f", "addrkv_fleet_latency_p50_us", "Node-reported wall-clock command latency p50.",
		digest(func(d *health.Digest, _ int) any { return d.LatP50US })},
	{"lat_p99_us", "%.1f", "addrkv_fleet_latency_p99_us", "Node-reported wall-clock command latency p99.",
		digest(func(d *health.Digest, _ int) any { return d.LatP99US })},
}

// fleetShardRows are the node="i",shard="j" series of /cluster/metrics.
var fleetShardRows = []row[fleetNode]{
	{"", "", "addrkv_fleet_shard_hit_rate", "Per-shard fast-path hit rate, by node.",
		digest(func(d *health.Digest, i int) any { return d.Shards[i].HitRate() })},
	{"", "", "addrkv_fleet_shard_queue_depth", "Per-shard worker ring depth, by node.",
		digest(func(d *health.Digest, i int) any { return d.Shards[i].QueueDepth })},
}

// fleetText renders CLUSTER HEALTH: one parse-friendly line per node,
// nodes in index order.
func fleetText(fleet []fleetNode) string {
	var b, line strings.Builder
	for _, fn := range fleet {
		line.Reset()
		writeFields(&line, fleetRows, fn, 0, " ")
		b.WriteString(strings.TrimSuffix(line.String(), " ") + "\r\n")
	}
	return b.String()
}

// fleetMetrics renders /cluster/metrics. Every node contributes its
// liveness series; only reachable nodes contribute digest series.
func fleetMetrics(fleet []fleetNode) string {
	var b strings.Builder
	families := func(rows []row[fleetNode], perShard bool) {
		for _, r := range rows {
			if r.fam == "" {
				continue
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", r.fam, r.help, r.fam, famType(r.fam))
			for _, fn := range fleet {
				if !perShard {
					if v := r.get(fn, 0); v != nil {
						fmt.Fprintf(&b, "%s{node=\"%d\"} %g\n", r.fam, fn.Node, sample(v))
					}
					continue
				}
				for i := 0; fn.Digest != nil && i < len(fn.Digest.Shards); i++ {
					fmt.Fprintf(&b, "%s{node=\"%d\",shard=\"%d\"} %g\n", r.fam, fn.Node, i, sample(r.get(fn, i)))
				}
			}
		}
	}
	families(fleetRows, false)
	families(fleetShardRows, true)
	return b.String()
}

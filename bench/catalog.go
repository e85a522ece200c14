package main

import (
	"fmt"

	"addrkv/internal/ycsb"
)

// workload is one set of inputs. Sizes are at scale 1; -scale shrinks
// key and op counts for the smoke test.
type workload struct {
	name string
	why  string // the one line BENCHMARK.json carries

	// served is false for sim-zipf, which runs in-process.
	served bool
	aof    bool

	keys    int // server -keys (sizing hint and preload count); sim key count
	idSpace int // key ids the generator draws from
	vsize   int // bytes of a written value
	dist    ycsb.Distribution
	setFrac float64

	conns int
	depth int

	warmOps int // fixed op count of one warm-up, part of setup_s

	// The modeled leg replays a fixed prefix of the op stream in-process,
	// single-threaded, so its cycle counts are a function of the seed.
	modelWarm, modelOps int

	// ledgerOps is the op-stream prefix the traced ledger replays.
	ledgerOps int
}

// preloadVsize is kvserve's default -vsize: the size of version-0
// values written by -preload.
const preloadVsize = 64

var workloads = []workload{
	{
		name: "sim-zipf",
		why:  "the paper's experiment in-process, zipf GETs with and without the STLT: only the simulator works, so an engine speed-up shows 1:1",
		keys: 200_000, idSpace: 200_000, vsize: 64,
		dist: ycsb.Zipf, conns: 1, depth: 64,
		warmOps: 200_000, modelWarm: 400_000, modelOps: 400_000, ledgerOps: 200_000,
	},
	{
		name: "serve-pipeline", served: true,
		why:  "kvserve, 2 conns x depth 16, 90% GET: throughput-bound, RESP parse/reply and the engine dominate, the ring hop is amortised",
		keys: 100_000, idSpace: 100_000, vsize: 64,
		dist: ycsb.Zipf, setFrac: 0.10, conns: 2, depth: 16,
		warmOps: 200_000, modelWarm: 200_000, modelOps: 200_000, ledgerOps: 200_000,
	},
	{
		name: "serve-pingpong", served: true,
		why:  "kvserve, 1 conn x depth 1: per-request overhead (socket, one ring hop, two wake-ups) dominates; an engine speed-up must not show",
		keys: 100_000, idSpace: 100_000, vsize: 64,
		dist: ycsb.Zipf, setFrac: 0.10, conns: 1, depth: 1,
		warmOps: 20_000, modelWarm: 200_000, modelOps: 200_000, ledgerOps: 100_000,
	},
	{
		name: "durable-write", served: true, aof: true,
		why:  "kvserve -aof-fsync always, 100% SET of 256 B over 4x the sized key space, then SIGKILL and read-back: fsync and group commit dominate",
		keys: 100_000, idSpace: 400_000, vsize: 256,
		dist: ycsb.Uniform, setFrac: 1, conns: 2, depth: 16,
		warmOps: 20_000, modelWarm: 80_000, modelOps: 160_000, ledgerOps: 48_000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the workload by f (0 < f <= 1), keeping every count
// large enough to fill a burst on every connection.
func (w workload) scaled(f float64) workload {
	if f >= 1 {
		return w
	}
	shrink := func(n int) int {
		n = int(float64(n) * f)
		return max(n, 4*w.conns*w.depth)
	}
	w.keys, w.idSpace = shrink(w.keys), shrink(w.idSpace)
	w.warmOps, w.ledgerOps = shrink(w.warmOps), shrink(w.ledgerOps)
	w.modelWarm, w.modelOps = shrink(w.modelWarm), shrink(w.modelOps)
	return w
}

// metricDef names one reported metric. The lists below are the same
// lists BENCHMARK.json carries; a test holds the two together.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"verified_share", "share"},
	{"modeled_cycles_per_op", "cycles/op"},
	{"stlt_speedup", "ratio"},
	{"peak_rss_mb", "MB"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"recovery_s", "s"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"ycsb.next_ns_per_op", "ns"},
	{"loadgen.encode_ns_per_op", "ns"},
	{"loadgen.cpu_ns_per_op", "ns"},
	{"loadgen.segment_spread", "share"},
	{"loadgen.latency_p999_us", "us"},

	{"resp.parse_ns_per_cmd", "ns"},
	{"resp.parse_allocs_per_cmd", "allocs"},
	{"resp.stream_parse_ns_per_cmd", "ns"},
	{"resp.reply_ns_per_reply", "ns"},
	{"resp.reply_allocs_per_reply", "allocs"},

	{"shard.route_ns_per_op", "ns"},
	{"shard.mutex_ns_per_op", "ns"},
	{"shard.worker_ns_per_op", "ns"},
	{"shard.lock_self_ns_per_op", "ns"},
	{"shard.hop_self_ns_per_op", "ns"},
	{"shard.drain_size_mean", "count"},
	{"shard.queue_full_spins", "count"},
	{"shard.ops_imbalance", "share"},

	{"kv.engine_ns_per_op", "ns"},
	{"kv.get_ns_per_op", "ns"},
	{"kv.set_ns_per_op", "ns"},
	{"kv.engine_allocs_per_op", "allocs"},
	{"kv.fast_path_hit_rate", "share"},
	{"kv.key_miss_rate", "share"},

	{"cpu.cycles_per_op", "cycles/op"},
	{"cpu.share.hash", "share"},
	{"cpu.share.traverse", "share"},
	{"cpu.share.translate", "share"},
	{"cpu.share.data", "share"},
	{"cpu.share.stlt", "share"},
	{"cpu.share.other", "share"},
	{"cpu.stb_hits_per_op", "count"},
	{"tlb.misses_per_op", "count"},
	{"vm.page_walks_per_op", "count"},
	{"cache.llc_misses_per_op", "count"},
	{"core.stlt_hit_rate", "share"},
	{"core.stlt_false_hits_per_op", "count"},
	{"core.stlt_replaced_per_op", "count"},
	{"core.ipb_rejects_per_op", "count"},

	{"wal.append_ns_per_rec", "ns"},
	{"wal.append_allocs_per_rec", "allocs"},
	{"wal.commit_ns_per_burst", "ns"},
	{"wal.bytes_per_rec", "bytes"},
	{"wal.recover_ns_per_rec", "ns"},
	{"wal.fsync_mean_us", "us"},
	{"wal.fsyncs_per_op", "count"},

	{"kvserve.boot_s", "s"},
	{"kvserve.cpu_ns_per_op", "ns"},
	{"kvserve.cpu_busy_share", "share"},
	{"kvserve.ctx_switches_per_op", "count"},
	{"kvserve.pipeline_depth_mean", "count"},
	{"kvserve.server_latency_mean_us", "us"},
	{"kvserve.unattributed_ns_per_op", "ns"},

	{"bench.build_s", "s"},
	{"trace.overhead_share", "share"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects a run's values against one of the lists above, so
// a metric that was never set, or set under a name the list lacks, is
// an error and not a silent gap.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
	note map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]float64{}, note: map[string]string{}}
}

func (m *metricSet) set(name string, v float64) {
	m.vals[name] = v
}

func (m *metricSet) setNote(name string, v float64, note string) {
	m.vals[name] = v
	m.note[name] = note
}

// fillZero gives every metric not yet set the value 0: the layer did
// no work on this workload.
func (m *metricSet) fillZero() {
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; !ok {
			m.setNote(d.name, 0, "layer not used by this workload")
		}
	}
}

func (m *metricSet) metrics() (map[string]metricValue, error) {
	known := map[string]bool{}
	out := map[string]metricValue{}
	for _, d := range m.defs {
		known[d.name] = true
		v, ok := m.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range m.vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return out, nil
}

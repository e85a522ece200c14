package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"addrkv"
)

// selfCPU is this process's user+system time: the load generator's cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTraced is the traced run. Its per-layer numbers come from two
// places: the in-process ledger, and a re-run of the served workload
// against a server with -metrics-addr on, sampled through /proc and
// scraped once at the end. Half of the measured window runs untraced
// first, so the cost of observing is reported as trace.overhead_share.
func runTraced(e env, w workload, seed uint64, seconds float64) (*metricSet, counts, error) {
	ms := newMetricSet(perLayer)
	ms.set("bench.build_s", e.buildS)
	if !w.served {
		c, err := tracedSim(e, w, seed, seconds, ms)
		return ms, c, err
	}
	var c counts

	led, err := runLedger(e, w, seed)
	if err != nil {
		return nil, c, err
	}
	led.report(ms)
	c.attempted += 4*led.ops + 2*led.allocOp
	if err := writeTrace(filepath.Join(e.outDir, "trace-"+w.name+".json"), led.spans); err != nil {
		return nil, c, err
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.conns))
	var tput [2]float64
	for traced := 0; traced < 2; traced++ {
		s, err := setupServed(e, w, seed, traced == 1, new(meter))
		if err != nil {
			s.discard(&c)
			return nil, c, err
		}
		before, err := sampleProc(s.srv.pid())
		if err != nil {
			s.discard(&c)
			return nil, c, err
		}
		cpu0 := selfCPU()
		win, err := s.lg.runTimed(sliceCount(seconds / 2))
		cpu1 := selfCPU()
		if err != nil {
			s.discard(&c)
			return nil, c, fmt.Errorf("traced window: %w", err)
		}
		tput[traced] = quiet(win.throughput(), true).Quiet
		if traced == 1 {
			err = servedLayers(s, w, win, before, cpu1-cpu0, led, ms)
		}
		s.discard(&c)
		if err != nil {
			return nil, c, err
		}
	}
	ms.setNote("trace.overhead_share", 1-tput[1]/tput[0], fmt.Sprintf("traced %.0f vs untraced %.0f ops/s", tput[1], tput[0]))
	return ms, c, nil
}

// servedLayers reports what the traced server and /proc say about the
// window. A series the server does not export is left out.
func servedLayers(s *servedSetup, w workload, win window, before procSample, loadgenCPU time.Duration, led *ledgerResult, ms *metricSet) error {
	after, err := sampleProc(s.srv.pid())
	if err != nil {
		return err
	}
	sc, err := s.srv.scrape()
	if err != nil {
		return err
	}
	ops := float64(win.samples())
	wall := after.at.Sub(before.at)

	ms.set("loadgen.cpu_ns_per_op", float64(loadgenCPU)/ops)
	ms.set("loadgen.segment_spread", spread(win.throughput()))
	ms.set("loadgen.latency_p999_us", quiet(win.latencyUS(0.999), false).Quiet)

	ms.set("kvserve.boot_s", s.boot.Seconds())
	cpuPerOp := float64(after.cpu-before.cpu) / ops
	ms.set("kvserve.cpu_ns_per_op", cpuPerOp)
	ms.set("kvserve.cpu_busy_share", float64(after.cpu-before.cpu)/(float64(wall)*float64(runtime.NumCPU())))
	ms.set("kvserve.ctx_switches_per_op", float64(after.ctxSwitches-before.ctxSwitches)/ops)
	explained := ms.vals["resp.parse_ns_per_cmd"] + ms.vals["shard.worker_ns_per_op"] + led.walCPUPerOp() + ms.vals["resp.reply_ns_per_reply"]
	ms.setNote("kvserve.unattributed_ns_per_op", cpuPerOp-explained,
		"cpu_ns_per_op - (resp.parse + shard.worker + wal without fsync waits + resp.reply)")

	ratio := func(metric, num, den string) {
		n, ok1 := sc.sum(num)
		d, ok2 := sc.sum(den)
		if ok1 && ok2 && d > 0 {
			ms.set(metric, n/d)
		}
	}
	ratio("shard.drain_size_mean", "addrkv_drain_size_sum", "addrkv_drain_size_count")
	ratio("kvserve.pipeline_depth_mean", "addrkv_pipeline_depth_sum", "addrkv_pipeline_depth_count")
	if v, ok := sc.sum("addrkv_queue_full_spins_total"); ok {
		ms.set("shard.queue_full_spins", v)
	}
	if per := sc.each("addrkv_shard_ops_total"); len(per) > 0 {
		total, _ := sc.sum("addrkv_shard_ops_total")
		ms.set("shard.ops_imbalance", (slices.Max(per)-slices.Min(per))/(total/float64(len(per))))
	}
	if v, ok := sc["addrkv_fast_path_hit_rate"]; ok {
		ms.setNote("kv.fast_path_hit_rate", v, "scraped")
	}
	if gets := sc[`addrkv_commands_total{cmd="get"}`]; gets > 0 {
		ms.setNote("kv.key_miss_rate", sc["addrkv_key_misses_total"]/gets, "scraped")
	}
	if n := sc[`addrkv_command_latency_seconds_count{cmd="all"}`]; n > 0 {
		ms.set("kvserve.server_latency_mean_us", sc[`addrkv_command_latency_seconds_sum{cmd="all"}`]/n*1e6)
	}
	if n, ok := sc.sum("addrkv_aof_fsync_seconds_count"); ok && n > 0 {
		total, _ := sc.sum("addrkv_aof_fsync_seconds_sum")
		ms.setNote("wal.fsync_mean_us", total/n*1e6, "scraped")
		if sets := sc[`addrkv_commands_total{cmd="set"}`]; sets > 0 {
			fsyncs, _ := sc.sum("addrkv_aof_fsyncs_total")
			ms.setNote("wal.fsyncs_per_op", fsyncs/sets, "scraped")
		}
	}
	return nil
}

// tracedSim is sim-zipf's traced run: the STLT leg, half the window
// untraced and half with a span around every generator and engine call.
// Spans are kept for the ledgerOps prefix.
func tracedSim(e env, w workload, seed uint64, seconds float64, ms *metricSet) (counts, error) {
	var c counts
	m, err := runModeled(w, seed)
	if err != nil {
		return c, err
	}
	hardware(m.stlt, ms)
	if m.stlt.Gets > 0 {
		ms.set("kv.fast_path_hit_rate", float64(m.stlt.FastHits)/float64(m.stlt.Gets))
		ms.set("kv.key_miss_rate", float64(m.stlt.Misses)/float64(m.stlt.Gets))
	}

	sys, err := buildSystem(w, addrkv.ModeSTLT)
	if err != nil {
		return c, err
	}
	leg := &simLeg{mode: addrkv.ModeSTLT, sys: sys, stream: newStream(w, seed)}
	for i := 0; i < w.warmOps; i++ {
		apply(sys, w, leg.stream.next())
	}
	sys.MarkMeasurement()

	half := time.Duration(seconds / 2 * float64(time.Second))
	t0 := time.Now()
	leg.runFor(w, half, nil)
	untraced := float64(leg.issued) / time.Since(t0).Seconds()

	tr := newTracer()
	tr.spans = make([]span, 0, 2*w.ledgerOps+w.ledgerOps/w.depth+1)
	var allocs allocCounter
	a0 := allocs.now()
	var tracedOps int64
	t0 = time.Now()
	for burst := int32(0); time.Since(t0) < half; burst++ {
		var p probe = discard{}
		if int(tracedOps) < w.ledgerOps {
			p = tr
		}
		root := p.begin(burst, stepBurst, -1)
		for i := 0; i < w.depth; i++ {
			sp := p.begin(burst, stepNext, root)
			o := leg.stream.next()
			p.end(sp)
			sp = p.begin(burst, stepGet, root)
			apply(sys, w, o)
			p.end(sp)
		}
		p.end(root)
		tracedOps += int64(w.depth)
	}
	traced := float64(tracedOps) / time.Since(t0).Seconds()
	a1 := allocs.now()
	leg.issued += uint64(tracedOps)
	leg.check(&c)

	tot := selfTimes(tr.spans)
	n := tot.count[stepGet]
	ms.set("ycsb.next_ns_per_op", tot.per(stepNext, n))
	ms.set("kv.engine_ns_per_op", tot.per(stepGet, n))
	ms.set("kv.get_ns_per_op", tot.per(stepGet, n))
	ms.setNote("kv.engine_allocs_per_op", float64(a1-a0)/float64(tracedOps), "whole traced half, generator included")
	ms.setNote("trace.overhead_share", 1-traced/untraced, fmt.Sprintf("traced %.0f vs untraced %.0f ops/s", traced, untraced))
	return c, writeTrace(filepath.Join(e.outDir, "trace-"+w.name+".json"), tr.spans)
}

// discard times a call like the tracer does and keeps nothing: past the
// stored prefix the traced half must still pay for its clock reads.
type discard struct{}

func (discard) begin(int32, step, int32) int32 { _ = time.Now(); return 0 }
func (discard) end(int32)                      { _ = time.Now() }

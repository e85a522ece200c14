package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"addrkv/internal/trace"
)

// tsv pulls one "key:value" line out of a TRACE STATUS / INFO payload.
func tsv(t *testing.T, payload, key string) string {
	t.Helper()
	for _, line := range strings.Split(payload, "\r\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return v
		}
	}
	t.Fatalf("no %q line in payload:\n%s", key, payload)
	return ""
}

func TestTraceCommands(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.traceDir = dir
	s := newConfigServer(t, cfg, false)

	status := string(call(t, s, "TRACE", "STATUS").([]byte))
	if tsv(t, status, "trace_sample_every") != "0" || tsv(t, status, "trace_ops") != "0" {
		t.Fatalf("fresh tracer not idle:\n%s", status)
	}

	if got := call(t, s, "TRACE", "ON"); got != "OK" {
		t.Fatalf("TRACE ON = %v", got)
	}
	call(t, s, "SET", "k", "v")
	call(t, s, "GET", "k")
	call(t, s, "GET", "missing")
	call(t, s, "DEL", "k")
	call(t, s, "EXISTS", "k")

	status = string(call(t, s, "TRACE", "STATUS").([]byte))
	if tsv(t, status, "trace_sample_every") != "1" || tsv(t, status, "trace_ops") != "5" {
		t.Fatalf("TRACE STATUS after 5 single-key ops:\n%s", status)
	}
	for _, k := range []string{"events_dispatch", "events_engine_op", "events_reply_flush"} {
		if tsv(t, status, k) != "5" {
			t.Fatalf("%s != 5:\n%s", k, status)
		}
	}

	// DUMP writes a parsable bundle, which kvtrace chrome converts.
	path := string(call(t, s, "TRACE", "DUMP").([]byte))
	b, err := trace.ParseBundleFile(path)
	if err != nil {
		t.Fatalf("dumped bundle unparsable: %v", err)
	}
	if len(b.Ops) != 5 || b.EventCounts["dispatch"] != 5 {
		t.Fatalf("bundle ops %d, counts %v", len(b.Ops), b.EventCounts)
	}
	for _, op := range b.Ops {
		if op.Conn != 1 {
			t.Fatalf("span missing connection id: %+v", op)
		}
		if !op.Has(trace.EvShardLock) || !op.Has(trace.EvReplyFlush) {
			t.Fatalf("span missing front-end events: %+v", op.Events)
		}
	}
	if ct := trace.ChromeTraceOf(b); len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace of the bundle has no events")
	}

	if got := call(t, s, "TRACE", "OFF"); got != "OK" {
		t.Fatalf("TRACE OFF = %v", got)
	}
	call(t, s, "SET", "k2", "v")
	status = string(call(t, s, "TRACE", "STATUS").([]byte))
	if tsv(t, status, "trace_ops") != "5" || tsv(t, status, "trace_sample_every") != "0" {
		t.Fatalf("TRACE OFF still sampling:\n%s", status)
	}

	if got := call(t, s, "TRACE", "ON", "0"); !strings.HasPrefix(got.(error).Error(), "ERR") {
		t.Fatalf("TRACE ON 0 accepted: %v", got)
	}
	if got := call(t, s, "TRACE", "BOGUS"); !strings.HasPrefix(got.(error).Error(), "ERR") {
		t.Fatalf("TRACE BOGUS accepted: %v", got)
	}
}

// TestTraceDumpStaysInDir: a client-chosen dump reason names the file
// only through the dumper's sanitiser, so a reason full of "../"
// cannot write outside -trace-dir.
func TestTraceDumpStaysInDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b")
	cfg := testConfig(1)
	cfg.traceDir = dir
	s := newConfigServer(t, cfg, false)
	call(t, s, "TRACE", "ON")
	call(t, s, "SET", "k", "v")

	path := string(call(t, s, "TRACE", "DUMP", "../../../../escaped").([]byte))
	if filepath.Dir(path) != dir || !regexp.MustCompile(`^kvserve-\d{3}-_+escaped\.json$`).MatchString(filepath.Base(path)) {
		t.Fatalf("dump path %q is not a sanitised bundle name under %s", path, dir)
	}
	if _, err := trace.ParseBundleFile(path); err != nil {
		t.Fatalf("dumped bundle unparsable: %v", err)
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Dir(p) != dir {
			t.Errorf("file written outside -trace-dir: %s", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceDumpWithoutDirFails(t *testing.T) {
	s := newTestServer(t)
	err, ok := call(t, s, "TRACE", "DUMP").(error)
	if !ok || !strings.Contains(err.Error(), "-trace-dir") {
		t.Fatalf("TRACE DUMP without -trace-dir = %v", err)
	}
}

// TestServerTracedMatchesUntraced is the server-layer leg of the
// bit-for-bit invariant: an identical command stream, traced 1 in 1 or
// 1 in 4 on one connection, must leave the engines in exactly the
// state an untraced server reaches, on the reference server and with
// workers. The front-end is the only sampler: exactly 1 in N ops
// carries a span, and every span has the whole front-end timeline.
func TestServerTracedMatchesUntraced(t *testing.T) {
	for _, workers := range []bool{false, true} {
		for _, every := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%v/every=%d", workers, every), func(t *testing.T) {
				testTracedMatchesUntraced(t, workers, every)
			})
		}
	}
}

func testTracedMatchesUntraced(t *testing.T, workers bool, every int) {
	plain := newConfigServer(t, testConfig(2), workers)
	traced := newConfigServer(t, testConfig(2), workers)
	if got := call(t, traced, "TRACE", "ON", strconv.Itoa(every)); got != "OK" {
		t.Fatalf("TRACE ON %d = %v", every, got)
	}

	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	run := func(s *server) []any {
		cs := &connState{id: 1} // one connection: one sampling counter
		var out []any
		for round := 0; round < 20; round++ {
			for _, k := range keys {
				out = append(out, callCS(t, s, cs, "SET", k, strings.Repeat("x", 64)))
				out = append(out, callCS(t, s, cs, "GET", k))
				out = append(out, callCS(t, s, cs, "EXISTS", k))
			}
			out = append(out, callCS(t, s, cs, "DEL", keys[round%len(keys)]))
			out = append(out, callCS(t, s, cs, "GET", "missing"))
		}
		return out
	}
	rp, rt := run(plain), run(traced)
	for i := range rp {
		bp, okP := rp[i].([]byte)
		bt, okT := rt[i].([]byte)
		if okP != okT || (okP && string(bp) != string(bt)) || (!okP && rp[i] != rt[i]) {
			t.Fatalf("reply %d diverged: %v vs %v", i, rp[i], rt[i])
		}
	}

	want, got := plain.sys.Cluster().Stats(), traced.sys.Cluster().Stats()
	if got.Agg != want.Agg {
		t.Fatalf("traced server diverged from untraced:\ntraced: %+v\nplain:  %+v", got.Agg, want.Agg)
	}

	const nOps = 20 * (5*3 + 2) // every op in run() is single-key
	n := traced.tracer.Traced()
	if n != nOps/uint64(every) {
		t.Fatalf("traced %d of %d ops at 1 in %d, want %d", n, nOps, every, nOps/every)
	}
	counts := traced.tracer.EventCounts()
	for _, k := range []string{"dispatch", "shard.lock", "engine.op", "reply.flush"} {
		if counts[k] != n {
			t.Fatalf("%s events %d != traced ops %d: %v", k, counts[k], n, counts)
		}
	}
	if every == 1 && counts["page.walk"] != got.Agg.Machine.PageWalks {
		t.Fatalf("page.walk events %d != machine walks %d", counts["page.walk"], got.Agg.Machine.PageWalks)
	}
}

// TestResetStatsClearsSlowlog: RESETSTATS must start a fresh slowlog
// window, not keep reporting the warmup phase's slowest commands.
func TestResetStatsClearsSlowlog(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "SET", "k", "v")
	call(t, s, "GET", "k")
	if n := call(t, s, "SLOWLOG", "LEN").(int64); n == 0 {
		t.Fatal("no slowlog entries before reset")
	}
	call(t, s, "RESETSTATS")
	// The RESETSTATS command itself is observed into the fresh window
	// (dispatch logs after execute), so at most that one entry remains.
	entries := call(t, s, "SLOWLOG", "GET", "0").([]any)
	for _, e := range entries {
		args := e.([]any)[3].([]any)
		if cmd := string(args[0].([]byte)); !strings.EqualFold(cmd, "resetstats") {
			t.Fatalf("pre-reset command %q survived RESETSTATS", cmd)
		}
	}
}

// TestWarmPhaseAnomaly: RESETSTATS arms the warm-phase trigger, so a
// traced op that still page-walks afterwards goes on the anomaly log.
func TestWarmPhaseAnomaly(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "TRACE", "ON")
	call(t, s, "SET", "cold", strings.Repeat("v", 64))
	if s.tracer.Warm() {
		t.Fatal("warm before RESETSTATS")
	}
	call(t, s, "RESETSTATS")
	if !s.tracer.Warm() {
		t.Fatal("RESETSTATS did not arm the warm phase")
	}
	// Touch fresh keys until one misses the TLB hard enough to walk.
	for i := 0; i < 500 && s.tracer.AnomalyCount() == 0; i++ {
		call(t, s, "SET", "warmkey"+strings.Repeat("x", i%7)+string(rune('a'+i%26)), "v")
	}
	if s.tracer.AnomalyCount() == 0 {
		t.Skip("no page walk occurred in the warm phase (workload fits TLB)")
	}
	status := string(call(t, s, "TRACE", "STATUS").([]byte))
	if tsv(t, status, "trace_warm_phase") != "true" {
		t.Fatalf("STATUS trace_warm_phase wrong:\n%s", status)
	}
	call(t, s, "FLUSHALL")
	if s.tracer.Warm() {
		t.Fatal("FLUSHALL did not clear the warm phase")
	}
}

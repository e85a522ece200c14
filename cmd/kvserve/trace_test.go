package main

import (
	"io/fs"
	"path/filepath"
	"regexp"
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
	if tsv(t, status, "sample_every") != "0" || tsv(t, status, "traced_ops") != "0" {
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
	if tsv(t, status, "sample_every") != "1" || tsv(t, status, "traced_ops") != "5" {
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
	if tsv(t, status, "traced_ops") != "5" || tsv(t, status, "sample_every") != "0" {
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
// bit-for-bit invariant: an identical command stream with 100%
// sampling must leave the engines in exactly the state an untraced
// server reaches, while every span agrees with its op's outcome.
func TestServerTracedMatchesUntraced(t *testing.T) {
	plain := newTestServerShards(t, 2)
	traced := newTestServerShards(t, 2)
	if got := call(t, traced, "TRACE", "ON"); got != "OK" {
		t.Fatalf("TRACE ON = %v", got)
	}

	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	run := func(s *server) []any {
		var out []any
		for round := 0; round < 20; round++ {
			for _, k := range keys {
				out = append(out, call(t, s, "SET", k, strings.Repeat("x", 64)))
				out = append(out, call(t, s, "GET", k))
				out = append(out, call(t, s, "EXISTS", k))
			}
			out = append(out, call(t, s, "DEL", keys[round%len(keys)]))
			out = append(out, call(t, s, "GET", "missing"))
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
	if n := traced.tracer.Traced(); n != nOps {
		t.Fatalf("traced %d ops, want %d", n, nOps)
	}
	counts := traced.tracer.EventCounts()
	if counts["dispatch"] != nOps || counts["reply.flush"] != nOps || counts["shard.lock"] != nOps {
		t.Fatalf("front-end event counts off: %v", counts)
	}
	if counts["page.walk"] != got.Agg.Machine.PageWalks {
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
	if tsv(t, status, "warm_phase") != "true" {
		t.Fatalf("STATUS warm_phase wrong:\n%s", status)
	}
	call(t, s, "FLUSHALL")
	if s.tracer.Warm() {
		t.Fatal("FLUSHALL did not clear the warm phase")
	}
}

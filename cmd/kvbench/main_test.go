package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
)

// miniServer is an in-process RESP responder: GET answers a bulk or a
// null for the sentinel key "user0000000000000099", SET answers OK,
// anything else an error. It records the largest burst one drain
// picked up so tests can verify the client actually pipelines.
type miniServer struct {
	ln        net.Listener
	cmds      atomic.Uint64
	traceCmds atomic.Uint64
	maxBurst  atomic.Uint64
}

func startMiniServer(t *testing.T) *miniServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := &miniServer{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go ms.serve(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ms
}

func (ms *miniServer) serve(conn net.Conn) {
	defer conn.Close()
	r := resp.NewReader(conn)
	w := resp.NewWriter(conn)
	for {
		cmds, err := r.ReadPipeline(0)
		if uint64(len(cmds)) > ms.maxBurst.Load() {
			ms.maxBurst.Store(uint64(len(cmds)))
		}
		for _, args := range cmds {
			ms.cmds.Add(1)
			switch strings.ToUpper(string(args[0])) {
			case "GET":
				if strings.HasSuffix(string(args[1]), "99") {
					w.WriteBulk(nil)
				} else {
					w.WriteBulk([]byte("value"))
				}
			case "SET":
				w.WriteSimple("OK")
			case "TRACE":
				ms.traceCmds.Add(1)
				w.WriteSimple("OK")
			default:
				w.WriteError("ERR unknown command")
			}
		}
		if w.Flush() != nil || err != nil {
			return
		}
	}
}

func testConfig(addr string) benchConfig {
	return benchConfig{
		network: "tcp", addr: addr,
		conns: 2, ops: 400, keys: 100, vsize: 32,
		getRatio: 0.5, seed: 1,
	}
}

// TestRunSweepEndToEnd drives a depth sweep against the mini server
// and checks op accounting, pipelining, and reporting.
func TestRunSweepEndToEnd(t *testing.T) {
	ms := startMiniServer(t)
	cfg := testConfig(ms.ln.Addr().String())

	var out strings.Builder
	results, err := run(cfg, []int{1, 8}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Ops != 400 || r.Conns != 2 || r.Errors != 0 {
			t.Fatalf("result %+v", r)
		}
		if r.OpsPerSec <= 0 || r.ElapsedNS <= 0 {
			t.Fatalf("no throughput measured: %+v", r)
		}
		if r.RoundtripUS.Count == 0 {
			t.Fatalf("no roundtrips observed: %+v", r)
		}
	}
	// Depth 1 flushes once per op; depth 8 once per batch of 8.
	if got := results[0].RoundtripUS.Count; got != 400 {
		t.Fatalf("depth-1 roundtrips = %d, want 400", got)
	}
	if got := results[1].RoundtripUS.Count; got != 50 {
		t.Fatalf("depth-8 roundtrips = %d, want 50 (200 ops / 8 per conn * 2 conns)", got)
	}
	if ms.cmds.Load() != 800 {
		t.Fatalf("server saw %d commands, want 800", ms.cmds.Load())
	}
	if ms.maxBurst.Load() < 2 {
		t.Fatal("server never saw a pipelined burst")
	}
	if !strings.Contains(out.String(), "depth   1:") || !strings.Contains(out.String(), "depth   8:") {
		t.Fatalf("report output missing depth lines:\n%s", out.String())
	}
}

// TestErrorRepliesCounted: error replies are counted, not fatal.
func TestErrorRepliesCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r, w := resp.NewReader(c), resp.NewWriter(c)
				for {
					if _, err := r.ReadCommand(); err != nil {
						return
					}
					w.WriteError("ERR nope")
					if w.Flush() != nil {
						return
					}
				}
			}(conn)
		}
	}()
	cfg := testConfig(ln.Addr().String())
	cfg.conns, cfg.ops = 1, 20
	res, err := runDepth(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20 || res.Errors != 20 {
		t.Fatalf("ops=%d errors=%d, want 20/20", res.Ops, res.Errors)
	}
}

// TestParseSweep covers the sweep flag grammar.
func TestParseSweep(t *testing.T) {
	got, err := parseSweep("1, 4,16")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseSweep = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "4,-1"} {
		if _, err := parseSweep(bad); err == nil {
			t.Fatalf("parseSweep(%q) accepted", bad)
		}
	}
}

// TestWriteArtifact checks the JSON sweep artifact shape.
func TestWriteArtifact(t *testing.T) {
	ms := startMiniServer(t)
	cfg := testConfig(ms.ln.Addr().String())
	results, err := run(cfg, []int{2}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := writeArtifact(path, cfg, []int{2}, results, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a kvproc.BenchArtifact
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatalf("artifact not valid JSON: %v\n%s", err, b)
	}
	if a.Name != "pipeline-sweep" || a.Kind != "kvbench" || len(a.Sweep) != 1 {
		t.Fatalf("artifact = %+v", a)
	}
	if a.Sweep[0].Depth != 2 || a.Sweep[0].Ops != 400 {
		t.Fatalf("sweep point = %+v", a.Sweep[0])
	}
	if a.Params["conns"].(float64) != 2 {
		t.Fatalf("params = %+v", a.Params)
	}
}

// TestTraceOverheadMode: the A/B comparison toggles TRACE on the
// server around the measured legs and lands in the artifact.
func TestTraceOverheadMode(t *testing.T) {
	ms := startMiniServer(t)
	cfg := testConfig(ms.ln.Addr().String())
	cfg.ops = 200

	var out strings.Builder
	to, err := runTraceOverhead(cfg, 8, 1024, &out)
	if err != nil {
		t.Fatal(err)
	}
	// 1 initial OFF + (OFF, ON) per interleaved round + 1 final OFF.
	if ms.traceCmds.Load() != 12 {
		t.Fatalf("server saw %d TRACE commands, want 12", ms.traceCmds.Load())
	}
	if to.SampleEvery != 1024 || to.OpsPerSecOff <= 0 || to.OpsPerSecOn <= 0 {
		t.Fatalf("overhead result = %+v", to)
	}
	if !strings.Contains(out.String(), "trace overhead @1/1024") {
		t.Fatalf("report line missing:\n%s", out.String())
	}

	path := filepath.Join(t.TempDir(), "overhead.json")
	if err := writeArtifact(path, cfg, []int{8}, nil, to); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a kvproc.BenchArtifact
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	if a.Name != "trace-overhead" || a.TraceOverhead == nil || a.TraceOverhead.SampleEvery != 1024 {
		t.Fatalf("artifact = %+v", a)
	}
}

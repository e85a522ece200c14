package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
)

// newWorkerServer builds a test server with the worker runtime up — a
// test server without it is the lock-per-op reference model the
// differentials compare against.
func newWorkerServer(t *testing.T, shards int) *server {
	t.Helper()
	return newConfigServer(t, testConfig(shards), true)
}

// renderReply turns a decoded RESP reply into a comparable string.
func renderReply(v any) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case []byte:
		return "$" + string(x)
	case error:
		return "-" + x.Error()
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = renderReply(e)
		}
		return "*[" + strings.Join(parts, ",") + "]"
	default:
		return fmt.Sprintf("%T:%v", v, v)
	}
}

// runScript drives one served connection through cmds (flushing every
// flushEvery commands, so several pipeline bursts run) and returns the
// rendered reply transcript.
func runScript(t *testing.T, s *server, cmds [][]string, flushEvery int) []string {
	t.Helper()
	r, w, _ := pipeClient(t, s)
	replies := make([]string, 0, len(cmds))
	read := func(n int) {
		for i := 0; i < n; i++ {
			v, err := r.ReadReply()
			if err != nil {
				t.Fatalf("reply %d: %v", len(replies), err)
			}
			replies = append(replies, renderReply(v))
		}
	}
	pendingReads := 0
	for _, c := range cmds {
		args := make([][]byte, len(c))
		for i, a := range c {
			args[i] = []byte(a)
		}
		if err := w.WriteCommand(args...); err != nil {
			t.Fatal(err)
		}
		pendingReads++
		if pendingReads >= flushEvery {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			read(pendingReads)
			pendingReads = 0
		}
	}
	if pendingReads > 0 {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		read(pendingReads)
	}
	return replies
}

// TestServerWorkerMatchesMutex is the server-level determinism pin for
// the worker runtime: the same single-connection command stream must
// produce byte-identical replies AND bit-for-bit identical modeled
// statistics on the worker runtime and on the lock-per-op reference
// server. Single-key async ops, multi-key barriers, admin commands,
// errors, and misses are all interleaved.
func TestServerWorkerMatchesMutex(t *testing.T) {
	var script [][]string
	for i := 0; i < 24; i++ {
		script = append(script, []string{"SET", fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)})
	}
	for i := 0; i < 24; i++ {
		script = append(script, []string{"GET", fmt.Sprintf("key-%d", i)})
		if i%5 == 0 {
			script = append(script, []string{"PING"}) // sync barrier mid-burst
		}
		if i%7 == 0 {
			script = append(script, []string{"EXISTS", fmt.Sprintf("key-%d", i)})
		}
	}
	script = append(script,
		[]string{"MSET", "ma", "1", "mb", "2"}, // batch path barrier
		[]string{"MGET", "ma", "mb", "absent"},
		[]string{"GET", "absent"},
		[]string{"DEL", "key-3"},
		[]string{"GET", "key-3"},
		[]string{"DEL", "ma", "mb"}, // multi-key DEL: batch path
		[]string{"GET"},             // arity error: sync error reply, in order
		[]string{"EXISTS", "key-4"},
		[]string{"DBSIZE"},
		[]string{"SET", "key-3", "back"},
		[]string{"GET", "key-3"},
	)

	for _, shards := range []int{1, 2} {
		worker := newWorkerServer(t, shards)
		mutex := newTestServerShards(t, shards)
		wr := runScript(t, worker, script, 9)
		mr := runScript(t, mutex, script, 9)
		if len(wr) != len(mr) {
			t.Fatalf("shards=%d: %d worker replies vs %d mutex", shards, len(wr), len(mr))
		}
		for i := range wr {
			if wr[i] != mr[i] {
				t.Fatalf("shards=%d reply %d (%v): worker %q vs mutex %q",
					shards, i, script[i], wr[i], mr[i])
			}
		}
		wrep, mrep := worker.sys.Report(), mutex.sys.Report()
		if wrep.Ops != mrep.Ops || wrep.Cycles != mrep.Cycles {
			t.Fatalf("shards=%d stats diverged: ops %d/%d cycles %d/%d",
				shards, wrep.Ops, mrep.Ops, wrep.Cycles, mrep.Cycles)
		}
		for i := range wrep.PerShard {
			if wrep.PerShard[i] != mrep.PerShard[i] {
				t.Fatalf("shard %d diverged:\nworker: %+v\nmutex:  %+v",
					i, wrep.PerShard[i], mrep.PerShard[i])
			}
		}
		if worker.opsSinceMark.Load() != mutex.opsSinceMark.Load() {
			t.Fatalf("server_ops diverged: %d vs %d",
				worker.opsSinceMark.Load(), mutex.opsSinceMark.Load())
		}
	}
}

// TestServerWorkerCrossConnections hammers one worker server from
// several connections: every op must complete exactly once through the
// shard rings (drained_ops exact), and per-connection reply order must
// hold under cross-connection batching.
func TestServerWorkerCrossConnections(t *testing.T) {
	const (
		conns   = 4
		opsEach = 250
	)
	s := newWorkerServer(t, 2)
	errCh := make(chan error, conns)
	for c := 0; c < conns; c++ {
		r, w, _ := pipeClient(t, s)
		go func(c int, r *resp.Reader, w *resp.Writer) {
			for i := 0; i < opsEach; i++ {
				key := []byte(fmt.Sprintf("k-%d-%d", c, i))
				val := []byte(fmt.Sprintf("v-%d-%d", c, i))
				w.WriteCommand([]byte("SET"), key, val)
				w.WriteCommand([]byte("GET"), key)
				if err := w.Flush(); err != nil {
					errCh <- err
					return
				}
				if v, err := r.ReadReply(); err != nil || v != "OK" {
					errCh <- fmt.Errorf("conn %d SET %d: %v, %v", c, i, v, err)
					return
				}
				v, err := r.ReadReply()
				if err != nil || !bytes.Equal(v.([]byte), val) {
					errCh <- fmt.Errorf("conn %d GET %d: %v, %v", c, i, v, err)
					return
				}
			}
			errCh <- nil
		}(c, r, w)
	}
	for c := 0; c < conns; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	total := uint64(conns * opsEach * 2)
	if got := s.opsSinceMark.Load(); got != total {
		t.Fatalf("server_ops = %d, want %d", got, total)
	}
	if rep := s.sys.Report(); rep.Ops != total {
		t.Fatalf("engine ops = %d, want %d", rep.Ops, total)
	}
	var drained, drains uint64
	for _, st := range s.sys.Cluster().RuntimeStats() {
		drained += st.DrainedOps
		drains += st.Drains
	}
	if drained != total {
		t.Fatalf("worker drained_ops = %d, want %d", drained, total)
	}
	if drains == 0 || drains > drained {
		t.Fatalf("drains = %d for %d drained ops", drains, drained)
	}
}

// TestServerRuntimeInfoAndMetrics: INFO gains a "# runtime" section
// and /metrics exposes the queue-depth and drain telemetry.
func TestServerRuntimeInfoAndMetrics(t *testing.T) {
	s := newWorkerServer(t, 2)
	runScript(t, s, [][]string{
		{"SET", "a", "1"}, {"GET", "a"}, {"EXISTS", "a"}, {"DEL", "a"},
	}, 4)

	info := string(call(t, s, "INFO").([]byte))
	for _, want := range []string{
		"# runtime", "queue_cap:", "queue_depth:",
		"worker_drains:", "worker_drained_ops:4", "drain_mean:", "drain_max:",
		"queue_full_spins:",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}

	srv, addr, err := startMetricsServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`addrkv_queue_depth{shard="0"}`,
		`addrkv_queue_depth{shard="1"}`,
		"addrkv_worker_drains_total ",
		"addrkv_worker_drained_ops_total 4",
		"addrkv_queue_full_spins_total ",
		"addrkv_drain_size_count ", // one sample per drain burst
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// The reference server reports no worker counters (the runtime is
	// down).
	m := newTestServer(t)
	info = string(call(t, m, "INFO").([]byte))
	if strings.Contains(info, "worker_drains:") {
		t.Fatalf("reference-server INFO has worker counters:\n%s", info)
	}
}

// TestServerHotPathZeroAlloc pins the end-to-end budget: a served
// SET+GET pipeline round trip over a warm connection allocates nothing
// anywhere in the process — parser (arena reuse), router (request
// slab), worker (GetInto reply buffer), writer (scratch formatting),
// and telemetry (gated slowlog, atomic histograms).
//
// Allocation budget table (steady state, per round trip of 2 commands):
//
//	resp.Reader.ReadPipelineReuse   0 allocs
//	table lookup + enqueue + Wait   0 allocs
//	Engine.GetInto / Engine.Set     0 allocs
//	resp.Writer replies + Flush     0 allocs
//	observeCmd (under slowlog floor) 0 allocs
//	TOTAL                           0 allocs
func TestServerHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel handoffs")
	}
	s := newWorkerServer(t, 1)
	// Raise the slowlog floor so nanosecond-scale ops never qualify and
	// the entry construction (which allocates) is skipped.
	for i := 0; i < slowlogCap; i++ {
		s.tele.slowlog.Note(telemetry.SlowlogEntry{Duration: time.Hour})
	}

	client, srv := net.Pipe()
	if !s.track(srv) {
		t.Fatal("track refused connection")
	}
	go s.serve(srv)
	t.Cleanup(func() { client.Close() })

	val := bytes.Repeat([]byte("v"), 64)
	var reqBuf, repBuf bytes.Buffer
	cw := resp.NewWriter(&reqBuf)
	cw.WriteCommand([]byte("SET"), []byte("hotkey"), val)
	cw.WriteCommand([]byte("GET"), []byte("hotkey"))
	cw.Flush()
	ew := resp.NewWriter(&repBuf)
	ew.WriteSimple("OK")
	ew.WriteBulk(val)
	ew.Flush()
	req, wantRep := reqBuf.Bytes(), repBuf.Bytes()

	reply := make([]byte, len(wantRep))
	roundTrip := func() {
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the arena, slab, and reply buffers
		roundTrip()
	}
	if !bytes.Equal(reply, wantRep) {
		t.Fatalf("reply = %q, want %q", reply, wantRep)
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("SET+GET round trip: %.2f allocs, budget 0", n)
	}
}

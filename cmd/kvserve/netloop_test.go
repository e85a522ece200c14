// Differential and behavioral pins for the -netloop event-loop
// front-end. The headline guarantee — replies AND modeled statistics
// bit-for-bit identical to the goroutine-per-connection path, in both
// dispatch modes and under both pollers — is enforced here over real
// TCP sockets (epoll needs kernel fds; net.Pipe has none).
package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
)

// tcpFrontend wires a server to a real TCP listener, optionally
// through the netloop front-end, and registers the full shutdown
// sequence (mirroring main): closing, listener close, nudge + wake,
// drain, stop loops.
func tcpFrontend(t *testing.T, s *server, netloop bool, poller string) string {
	t.Helper()
	if netloop {
		if err := s.startNetloop(2, poller); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.acceptLoop(ln)
	t.Cleanup(func() {
		s.closing.Store(true)
		ln.Close()
		s.nudgeConns()
		s.wakeNetloop()
		s.drain()
		s.stopNetloop()
	})
	return ln.Addr().String()
}

// tcpClient dials the front-end and returns RESP ends plus the raw
// conn.
func tcpClient(t *testing.T, addr string) (*resp.Reader, *resp.Writer, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return resp.NewReader(conn), resp.NewWriter(conn), conn
}

// runScriptTCP drives one TCP connection through cmds exactly like
// runScript drives a pipe, returning the rendered transcript.
func runScriptTCP(t *testing.T, addr string, cmds [][]string, flushEvery int) []string {
	t.Helper()
	r, w, _ := tcpClient(t, addr)
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

// frontend names one networking front-end for tcpFrontend.
type frontend struct {
	name    string
	netloop bool
	poller  string
}

// testFrontends lists every front-end this platform has, the
// goroutine path (the differentials' baseline) first.
func testFrontends() []frontend {
	fes := []frontend{{"goroutine", false, ""}}
	if epollSupported {
		fes = append(fes, frontend{"netloop-epoll", true, "epoll"})
	}
	return append(fes, frontend{"netloop-portable", true, "portable"})
}

// netloopScript is the differential workload: async single-key ops,
// sync barriers, batch commands, arity errors, and misses interleaved
// so both the worker fast path and every barrier path run.
func netloopScript() [][]string {
	var script [][]string
	for i := 0; i < 24; i++ {
		script = append(script, []string{"SET", fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)})
	}
	for i := 0; i < 24; i++ {
		script = append(script, []string{"GET", fmt.Sprintf("key-%d", i)})
		if i%5 == 0 {
			script = append(script, []string{"PING"})
		}
		if i%7 == 0 {
			script = append(script, []string{"EXISTS", fmt.Sprintf("key-%d", i)})
		}
	}
	script = append(script,
		[]string{"MSET", "ma", "1", "mb", "2"},
		[]string{"MGET", "ma", "mb", "absent"},
		[]string{"GET", "absent"},
		[]string{"DEL", "key-3"},
		[]string{"GET", "key-3"},
		[]string{"DEL", "ma", "mb"},
		[]string{"GET"}, // arity error: sync, in order
		[]string{"EXISTS", "key-4"},
		[]string{"DBSIZE"},
		[]string{"SET", "key-3", "back"},
		[]string{"GET", "key-3"},
	)
	return script
}

// TestNetloopMatchesGoroutine is the front-end determinism pin: the
// same command stream over TCP must produce byte-identical replies and
// bit-for-bit identical modeled statistics through the goroutine path
// and the event loop (both pollers), in worker AND mutex dispatch. A
// small -pipeline cap forces the burst machine through its
// multi-round (full-burst) path.
func TestNetloopMatchesGoroutine(t *testing.T) {
	script := netloopScript()
	frontends := testFrontends()

	for _, dispatch := range []string{"worker", "mutex"} {
		var baseReplies []string
		var baseOps, baseCycles, baseServerOps uint64
		for _, fe := range frontends {
			t.Run(dispatch+"/"+fe.name, func(t *testing.T) {
				var s *server
				if dispatch == "worker" {
					s = newWorkerServer(t, 2)
				} else {
					s = newTestServerShards(t, 2)
				}
				s.net.maxPipeline = 4 // force full-burst rounds in the loop
				addr := tcpFrontend(t, s, fe.netloop, fe.poller)
				replies := runScriptTCP(t, addr, script, 9)
				rep := s.sys.Report()
				sops := s.opsSinceMark.Load()
				if fe.name == "goroutine" {
					baseReplies, baseOps, baseCycles, baseServerOps = replies, rep.Ops, rep.Cycles, sops
					return
				}
				if len(replies) != len(baseReplies) {
					t.Fatalf("%d replies vs %d on goroutine path", len(replies), len(baseReplies))
				}
				for i := range replies {
					if replies[i] != baseReplies[i] {
						t.Fatalf("reply %d (%v): netloop %q vs goroutine %q",
							i, script[i], replies[i], baseReplies[i])
					}
				}
				if rep.Ops != baseOps || rep.Cycles != baseCycles {
					t.Fatalf("modeled stats diverged: ops %d/%d cycles %d/%d",
						rep.Ops, baseOps, rep.Cycles, baseCycles)
				}
				if sops != baseServerOps {
					t.Fatalf("server_ops diverged: %d vs %d", sops, baseServerOps)
				}
			})
		}
	}
}

// TestNetloopCrossConnections hammers one netloop worker server from
// several TCP connections: per-connection reply order must hold under
// cross-connection batching, every op completes exactly once through
// the shard rings, and the loop telemetry reflects the traffic.
func TestNetloopCrossConnections(t *testing.T) {
	const (
		conns   = 4
		opsEach = 200
	)
	s := newWorkerServer(t, 2)
	addr := tcpFrontend(t, s, true, "")
	errCh := make(chan error, conns)
	for c := 0; c < conns; c++ {
		r, w, _ := tcpClient(t, addr)
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
	var drained uint64
	for _, st := range s.sys.Cluster().RuntimeStats() {
		drained += st.DrainedOps
	}
	if drained != total {
		t.Fatalf("worker drained_ops = %d, want %d", drained, total)
	}
	var wakeups, bytesRead uint64
	for _, sh := range s.loop.shards {
		wakeups += sh.wakeups.Load()
		bytesRead += sh.bytesRead.Load()
	}
	if wakeups == 0 || bytesRead == 0 {
		t.Fatalf("loop telemetry silent: wakeups=%d bytes=%d", wakeups, bytesRead)
	}
}

// TestNetloopInfoAndMetrics: INFO's "# networking" section reports the
// loop state and /metrics exposes the per-reader-shard gauges.
func TestNetloopInfoAndMetrics(t *testing.T) {
	s := newWorkerServer(t, 1)
	addr := tcpFrontend(t, s, true, "")
	runScriptTCP(t, addr, [][]string{{"SET", "a", "1"}, {"GET", "a"}}, 2)

	r, w, _ := tcpClient(t, addr)
	if err := w.WriteCommand([]byte("INFO")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	info := string(v.([]byte))
	for _, want := range []string{
		"netloop:on", "netloop_readers:2", "netloop_poller:",
		"netloop_conns:", "loop_wakeups:", "loop_conn_events:",
		"loop_bytes_read:", "loop_rounds:", "loop_idle_reaped:0",
		"loop_write_stalls:0",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}

	srv, maddr, err := startMetricsServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := http.Get("http://" + maddr.String() + "/metrics")
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
		`addrkv_netloop_conns{reader="0"}`,
		`addrkv_netloop_conns{reader="1"}`,
		`addrkv_netloop_wakeups_total{reader=`,
		`addrkv_netloop_bytes_read_total{reader=`,
		`addrkv_netloop_rounds_total{reader=`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// A non-netloop server reports netloop:off.
	m := newTestServer(t)
	off := string(call(t, m, "INFO").([]byte))
	if !strings.Contains(off, "netloop:off") {
		t.Fatalf("plain INFO missing netloop:off:\n%s", off)
	}
}

// TestNetloopStartErrors: bad poller names fail fast at startup.
func TestNetloopStartErrors(t *testing.T) {
	s := newTestServer(t)
	if err := s.startNetloop(1, "kqueue"); err == nil {
		t.Fatal("unknown poller accepted")
	}
	if !epollSupported {
		if err := s.startNetloop(1, "epoll"); err == nil {
			t.Fatal("epoll accepted on a platform without it")
		}
	}
}

// dribble writes raw bytes in small chunks with a gap between chunks,
// simulating a client trickling a pipelined burst slower than the
// idle timeout but never going fully silent.
func dribble(t *testing.T, conn net.Conn, raw []byte, chunk int, gap time.Duration) {
	t.Helper()
	for off := 0; off < len(raw); off += chunk {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := conn.Write(raw[off:end]); err != nil {
			t.Fatalf("dribble write at %d: %v", off, err)
		}
		time.Sleep(gap)
	}
}

// TestIdleTimeoutMidBurst is the regression pin for the idle-reap
// semantics fix: "idle" means no BYTES for the timeout, so a client
// trickling a pipelined burst slower than the timeout (but with
// steady byte arrival) is never reaped mid-burst — on the goroutine
// path (idleConn re-arms per read) and on both netloop pollers. A
// genuinely silent connection on the same server IS reaped.
func TestIdleTimeoutMidBurst(t *testing.T) {
	type frontend struct {
		name    string
		netloop bool
		poller  string
	}
	frontends := []frontend{{"goroutine", false, ""}, {"netloop-portable", true, "portable"}}
	if epollSupported {
		frontends = append(frontends, frontend{"netloop-epoll", true, "epoll"})
	}

	// The burst: enough pipelined PINGs that dribbling it at chunk/gap
	// spans several idle timeouts end to end.
	var burst bytes.Buffer
	bw := resp.NewWriter(&burst)
	const pings = 12
	for i := 0; i < pings; i++ {
		bw.WriteCommand([]byte("PING"))
	}
	bw.Flush()
	raw := burst.Bytes()

	for _, fe := range frontends {
		t.Run(fe.name, func(t *testing.T) {
			s := newTestServerShards(t, 1)
			const idle = 120 * time.Millisecond
			s.net.idleTimeout = idle
			addr := tcpFrontend(t, s, fe.netloop, fe.poller)

			// Trickling connection: ~30ms per chunk, total well past the
			// timeout, never silent for 120ms. Must survive and answer
			// every command.
			r, _, conn := tcpClient(t, addr)
			done := make(chan struct{})
			go func() {
				defer close(done)
				dribble(t, conn, raw, 8, 30*time.Millisecond)
			}()
			for i := 0; i < pings; i++ {
				v, err := r.ReadReply()
				if err != nil {
					t.Fatalf("trickled reply %d: %v (mid-burst reap?)", i, err)
				}
				if v != "PONG" {
					t.Fatalf("trickled reply %d = %v", i, v)
				}
			}
			<-done

			// Silent connection: must be reaped within a few timeouts.
			_, _, quiet := tcpClient(t, addr)
			quiet.SetReadDeadline(time.Now().Add(10 * idle))
			if _, err := quiet.Read(make([]byte, 1)); err == nil || isTimeout(err) {
				t.Fatalf("silent conn not reaped: %v", err)
			}
		})
	}
}

// TestNetloopMonitor: MONITOR detaches a connection from the loop onto
// the feed goroutine; a pipelined command right behind MONITOR (the
// stream's unparsed leftover) still detaches the monitor immediately.
func TestNetloopMonitor(t *testing.T) {
	s := newWorkerServer(t, 1)
	// Burst cap 1: a command pipelined behind MONITOR stays UNPARSED in
	// the stream, so the detach path must replay it as leftover. (At
	// larger caps it parses into the same burst and is dropped — the
	// blocking path does the same.)
	s.net.maxPipeline = 1
	addr := tcpFrontend(t, s, true, "")

	// Live monitor: sees another connection's traffic.
	mr, mw, mconn := tcpClient(t, addr)
	if err := mw.WriteCommand([]byte("MONITOR")); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := mr.ReadReply(); err != nil || v != "OK" {
		t.Fatalf("MONITOR ack: %v, %v", v, err)
	}
	runScriptTCP(t, addr, [][]string{{"SET", "spied", "on"}}, 1)
	mconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	v, err := mr.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if line, ok := v.(string); !ok || !strings.Contains(line, "spied") {
		t.Fatalf("monitor line = %v", v)
	}
	// Any command detaches; the loop-side goroutine closes the conn.
	if err := mw.WriteCommand([]byte("PING")); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := mr.ReadReply(); err == nil || isTimeout(err) {
		t.Fatalf("monitor conn still open after detach command: %v", err)
	}

	// Pipelined MONITOR+PING in one segment: PING rides in the stream
	// leftover, is replayed to the monitor loop, and detaches at once.
	lr, lw, lconn := tcpClient(t, addr)
	lw.WriteCommand([]byte("MONITOR"))
	lw.WriteCommand([]byte("PING"))
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := lr.ReadReply(); err != nil || v != "OK" {
		t.Fatalf("pipelined MONITOR ack: %v, %v", v, err)
	}
	lconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		v, err := lr.ReadReply()
		if err != nil {
			if isTimeout(err) {
				t.Fatal("leftover command after MONITOR did not detach")
			}
			break // detached and closed — success
		}
		if _, ok := v.(string); !ok {
			t.Fatalf("unexpected monitor reply %v", v)
		}
	}
}

// TestNetloopMalformed: a malformed command closes the connection, but
// only after every complete command ahead of it has been answered —
// the same surfacing order as the blocking path.
func TestNetloopMalformed(t *testing.T) {
	s := newWorkerServer(t, 1)
	addr := tcpFrontend(t, s, true, "")
	r, _, conn := tcpClient(t, addr)
	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n*1\r\n$-5\r\nbogus\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if v, err := r.ReadReply(); err != nil || v != "PONG" {
		t.Fatalf("reply ahead of malformed input: %v, %v", v, err)
	}
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("connection survived malformed input")
	}
}

// TestNetloopHotPathZeroAlloc pins the event-loop read/flush budget
// on BOTH pollers (auto picks per host shape, so neither may regress):
// a warm SET+GET pipeline round trip through the loop allocates
// nothing — stream fill (segment reuse), burst parse (arena), worker
// enqueue (slab), reply write, and loop bookkeeping (stored read
// callback, reused round buffers) are all steady-state
// allocation-free.
func TestNetloopHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel handoffs")
	}
	for _, poller := range []string{"epoll", "portable"} {
		if poller == "epoll" && !epollSupported {
			continue
		}
		t.Run(poller, func(t *testing.T) { testNetloopZeroAlloc(t, poller) })
	}
}

func testNetloopZeroAlloc(t *testing.T, poller string) {
	s := newWorkerServer(t, 1)
	for i := 0; i < defaultSlowlogCap; i++ {
		s.tele.slowlog.Note(telemetry.SlowlogEntry{Duration: time.Hour})
	}
	addr := tcpFrontend(t, s, true, poller)
	_, _, client := tcpClient(t, addr)

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
	for i := 0; i < 64; i++ { // warm stream, arena, slab, round buffers
		roundTrip()
	}
	if !bytes.Equal(reply, wantRep) {
		t.Fatalf("reply = %q, want %q", reply, wantRep)
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("netloop SET+GET round trip: %.2f allocs, budget 0", n)
	}
}

// BenchmarkFrontend compares the two front-ends end to end over
// loopback TCP: pipelined SET+GET bursts against a worker server, at
// one connection (the event loop's worst case — every burst is a
// fresh poller wakeup) and at eight (its design point — wakeups
// batch across connections). The CI benchstat gate runs matching
// legs against each other as a regression backstop.
func BenchmarkFrontend(b *testing.B) {
	for _, fe := range []struct {
		name    string
		netloop bool
	}{{"goroutine", false}, {"netloop", true}} {
		for _, nconns := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/conns=%d", fe.name, nconns), func(b *testing.B) {
				s := benchServer(b)
				if fe.netloop {
					if err := s.startNetloop(2, ""); err != nil {
						b.Fatal(err)
					}
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				go s.acceptLoop(ln)
				defer func() {
					s.closing.Store(true)
					ln.Close()
					s.nudgeConns()
					s.wakeNetloop()
					s.drain()
					s.stopNetloop()
					s.stopWorkers()
				}()

				const depth = 16
				val := bytes.Repeat([]byte("v"), 64)
				var reqBuf bytes.Buffer
				cw := resp.NewWriter(&reqBuf)
				for i := 0; i < depth/2; i++ {
					cw.WriteCommand([]byte("SET"), []byte("benchkey"), val)
					cw.WriteCommand([]byte("GET"), []byte("benchkey"))
				}
				cw.Flush()
				req := reqBuf.Bytes()
				var repBuf bytes.Buffer
				ew := resp.NewWriter(&repBuf)
				for i := 0; i < depth/2; i++ {
					ew.WriteSimple("OK")
					ew.WriteBulk(val)
				}
				ew.Flush()

				conns := make([]net.Conn, nconns)
				for i := range conns {
					c, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					conns[i] = c
				}
				roundTrip := func(c net.Conn, reply []byte) error {
					if _, err := c.Write(req); err != nil {
						return err
					}
					_, err := io.ReadFull(c, reply)
					return err
				}
				for _, c := range conns {
					if err := roundTrip(c, make([]byte, repBuf.Len())); err != nil {
						b.Fatal(err)
					}
				}

				b.SetBytes(int64(len(req)))
				b.ResetTimer()
				var wg sync.WaitGroup
				var failed atomic.Bool
				for i, c := range conns {
					iters := b.N / nconns
					if i < b.N%nconns {
						iters++
					}
					wg.Add(1)
					go func(c net.Conn, iters int) {
						defer wg.Done()
						reply := make([]byte, repBuf.Len())
						for j := 0; j < iters; j++ {
							if err := roundTrip(c, reply); err != nil {
								failed.Store(true)
								return
							}
						}
					}(c, iters)
				}
				wg.Wait()
				if failed.Load() {
					b.Fatal("round trip failed")
				}
			})
		}
	}
}

// benchServer builds a worker server for benchmarks (testing.B has no
// newWorkerServer helper — that one wants *testing.T).
func benchServer(b *testing.B) *server {
	b.Helper()
	sys, err := addrkv.New(addrkv.Options{
		Keys:       2000,
		Shards:     1,
		Index:      addrkv.IndexChainHash,
		Mode:       addrkv.ModeSTLT,
		RedisLayer: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := newServer(sys, defaultSlowlogCap)
	if err := s.startWorkers(0); err != nil {
		b.Fatal(err)
	}
	return s
}

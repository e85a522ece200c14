package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
)

// testConfig is what every test server starts from: 2000 keys of STLT
// over chainhash, on the given number of shards.
func testConfig(shards int) config {
	return config{engine: addrkv.Options{
		Keys:       2000,
		Shards:     shards,
		Index:      addrkv.IndexChainHash,
		Mode:       addrkv.ModeSTLT,
		RedisLayer: true,
	}}
}

// newConfigServer builds a server from cfg through newServer, brings
// the worker runtime up when workers is set (without it the server is
// the lock-per-op reference model), and closes it when the test ends.
func newConfigServer(t *testing.T, cfg config, workers bool) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	if workers {
		if err := s.startWorkers(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func newTestServerShards(t *testing.T, shards int) *server {
	t.Helper()
	return newConfigServer(t, testConfig(shards), false)
}

func newTestServer(t *testing.T) *server { return newTestServerShards(t, 1) }

// runOne takes one command down the served path as a burst of one —
// through the pending window when it is a single-key verb, through
// dispatch otherwise — buffering its reply in w.
func runOne(s *server, w *resp.Writer, cs *connState, args ...string) (quit, monitor bool) {
	ba := make([][]byte, len(args))
	for i, a := range args {
		ba[i] = []byte(a)
	}
	quit, monitor, _ = s.runBurstCmds(w, cs, [][][]byte{ba})
	return quit, monitor
}

// call runs a command on a fresh connection state and returns the
// decoded reply.
func call(t *testing.T, s *server, args ...string) any {
	t.Helper()
	return callCS(t, s, &connState{id: 1}, args...)
}

// callCS is call with a caller-owned connState, so ASKING's one-shot
// flag survives across commands like it would on a real connection.
func callCS(t *testing.T, s *server, cs *connState, args ...string) any {
	t.Helper()
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	runOne(s, w, cs, args...)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := resp.NewReader(&buf).ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMain lets a test run kvserve's real main in a child process: the
// test binary re-executes itself with kvserveArgsEnv set to the argv.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(kvserveArgsEnv); ok {
		os.Args = append([]string{"kvserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const kvserveArgsEnv = "KVSERVE_TEST_MAIN_ARGS"

// TestMainRejectsBadFlags: flag values main cannot serve with, and
// flags that no longer exist, exit 2 with a message naming the flag
// before anything is built or bound.
func TestMainRejectsBadFlags(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "kv.sock")
	for _, tc := range []struct{ args, want string }{
		{"-shards 0", "-shards must be >= 1"},
		{"-pipeline 8", "not defined: -pipeline"},
		{"-writebuf 4096", "not defined: -writebuf"},
		{"-slowlog 16", "not defined: -slowlog"},
		{"-sweep-interval 0", "not defined: -sweep-interval"},
		{"-snapshot-interval 1s", "not defined: -snapshot-interval"},
		{"-cluster-slots 0:0-16383", "not defined: -cluster-slots"},
		{"-dispatch mutex", "not defined: -dispatch"},
		{"-queue 64", "not defined: -queue"},
		{"-trace-ring 8", "not defined: -trace-ring"},
		{"-cluster-batch 16", "not defined: -cluster-batch"},
		{"-heartbeat-suspect 1", "not defined: -heartbeat-suspect"},
		{"-heartbeat-down 2", "not defined: -heartbeat-down"},
		{"-sweep-limit 5", "not defined: -sweep-limit"},
		{"-expire-cycle-budget 5", "not defined: -expire-cycle-budget"},
		{"-cluster-rewarm=false", "not defined: -cluster-rewarm"},
		{"-vsize 128", "not defined: -vsize"},
		{"-fast-hash sipHash", "not defined: -fast-hash"},
		{"-trace-anomaly-cycles 5000", "not defined: -trace-anomaly-cycles"},
		{"-trace-sample 1", "not defined: -trace-sample"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), kvserveArgsEnv+"=-sock "+sock+" "+tc.args)
		out, err := cmd.CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("kvserve %s: %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("kvserve %s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestServerBasicCommands(t *testing.T) {
	s := newTestServer(t)

	if got := call(t, s, "PING"); got != "PONG" {
		t.Fatalf("PING = %v", got)
	}
	if got := call(t, s, "SET", "alpha", "one"); got != "OK" {
		t.Fatalf("SET = %v", got)
	}
	if got := call(t, s, "GET", "alpha"); string(got.([]byte)) != "one" {
		t.Fatalf("GET = %v", got)
	}
	if got := call(t, s, "EXISTS", "alpha"); got.(int64) != 1 {
		t.Fatalf("EXISTS = %v", got)
	}
	if got := call(t, s, "GET", "missing"); got != nil {
		t.Fatalf("GET missing = %v", got)
	}
	if got := call(t, s, "DBSIZE"); got.(int64) != 1 {
		t.Fatalf("DBSIZE = %v", got)
	}
	if got := call(t, s, "DEL", "alpha", "missing"); got.(int64) != 1 {
		t.Fatalf("DEL = %v", got)
	}
	if got := call(t, s, "GET", "alpha"); got != nil {
		t.Fatal("deleted key visible")
	}
}

func TestServerInfoAndReset(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "SET", "k", "v")
	call(t, s, "GET", "k")
	info := string(call(t, s, "INFO").([]byte))
	if !strings.Contains(info, "cycles_per_op") {
		t.Fatalf("INFO missing stats:\n%s", info)
	}
	if !strings.Contains(info, "shards:1") || !strings.Contains(info, "# shard 0") {
		t.Fatalf("INFO missing shard sections:\n%s", info)
	}
	if got := call(t, s, "RESETSTATS"); got != "OK" {
		t.Fatalf("RESETSTATS = %v", got)
	}
	info = string(call(t, s, "INFO").([]byte))
	if !strings.Contains(info, "\r\nops:0\r\n") {
		t.Fatalf("stats not reset:\n%s", info)
	}
}

// TestServerExistsCounted: EXISTS must count toward server_ops like
// GET/SET, and must be cheaper than a GET of the same key (it skips
// the value read and the value-copy reply).
func TestServerExistsCounted(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "SET", "k", strings.Repeat("v", 256))
	call(t, s, "RESETSTATS")
	call(t, s, "EXISTS", "k")
	call(t, s, "EXISTS", "nope")
	info := string(call(t, s, "INFO").([]byte))
	if !strings.Contains(info, "server_ops:2") {
		t.Fatalf("EXISTS not counted in server_ops:\n%s", info)
	}
	if !strings.Contains(info, "\r\nops:2\r\n") {
		t.Fatalf("EXISTS not counted as engine ops:\n%s", info)
	}

	existsRep := s.sys.Report()
	call(t, s, "RESETSTATS")
	call(t, s, "GET", "k")
	call(t, s, "GET", "nope")
	getRep := s.sys.Report()
	if existsRep.Cycles >= getRep.Cycles {
		t.Fatalf("EXISTS (%d cycles) not cheaper than GET (%d cycles)",
			existsRep.Cycles, getRep.Cycles)
	}
}

func TestServerFlushall(t *testing.T) {
	s := newTestServerShards(t, 2)
	call(t, s, "SET", "a", "1")
	call(t, s, "SET", "b", "2")
	if got := call(t, s, "DBSIZE"); got.(int64) != 2 {
		t.Fatalf("DBSIZE = %v", got)
	}
	if got := call(t, s, "FLUSHALL"); got != "OK" {
		t.Fatalf("FLUSHALL = %v", got)
	}
	if got := call(t, s, "DBSIZE"); got.(int64) != 0 {
		t.Fatalf("DBSIZE after FLUSHALL = %v", got)
	}
	if got := call(t, s, "GET", "a"); got != nil {
		t.Fatalf("flushed key visible: %v", got)
	}
	// Server stays usable.
	if got := call(t, s, "SET", "c", "3"); got != "OK" {
		t.Fatalf("SET after FLUSHALL = %v", got)
	}
	if got := call(t, s, "GET", "c"); string(got.([]byte)) != "3" {
		t.Fatalf("GET after FLUSHALL = %v", got)
	}
}

func TestServerErrors(t *testing.T) {
	s := newTestServer(t)
	if _, ok := call(t, s, "GET").(error); !ok {
		t.Fatal("arity error not reported")
	}
	if _, ok := call(t, s, "SET", "k").(error); !ok {
		t.Fatal("arity error not reported")
	}
	if _, ok := call(t, s, "EXISTS").(error); !ok {
		t.Fatal("arity error not reported")
	}
	if _, ok := call(t, s, "WHATEVER").(error); !ok {
		t.Fatal("unknown command not reported")
	}
}

func TestServerQuit(t *testing.T) {
	s := newTestServer(t)
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	if quit, _ := runOne(s, w, &connState{id: 1}, "QUIT"); !quit {
		t.Fatal("QUIT did not request close")
	}
	if quit, _ := runOne(s, w, &connState{id: 1}, "PING"); quit {
		t.Fatal("PING requested close")
	}
}

// TestServerInfoLatencySections: after a few commands, INFO reports
// wall-clock latency percentiles, modeled cycle percentiles, and the
// per-shard telemetry lines.
func TestServerInfoLatencySections(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "SET", "k", "v")
	call(t, s, "GET", "k")
	call(t, s, "GET", "k")
	info := string(call(t, s, "INFO").([]byte))
	for _, want := range []string{
		"latency_samples:", "latency_p50_us:", "latency_p99_us:", "latency_p999_us:",
		"op_cycles_p50:", "op_cycles_p99:",
		"slowlog_len:", "monitor_clients:0",
		"shard0_fast_hit_rate:", "shard0_cycles_p99:",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
	// Commands above were dispatched, so samples and cycles are nonzero.
	if strings.Contains(info, "latency_samples:0\r\n") {
		t.Fatalf("no latency samples recorded:\n%s", info)
	}
	if strings.Contains(info, "op_cycles_p50:0\r\n") {
		t.Fatalf("no op cycle samples recorded:\n%s", info)
	}
}

// TestServerSlowlog: SLOWLOG LEN/GET/RESET over a handful of commands.
// Every dispatched command qualifies while the log is below capacity,
// and GET entries carry the shard/cycles/detail breakdown.
func TestServerSlowlog(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "SET", "k", "v")
	call(t, s, "GET", "k")
	call(t, s, "GET", "missing")

	if n := call(t, s, "SLOWLOG", "LEN").(int64); n < 3 {
		t.Fatalf("SLOWLOG LEN = %d, want >= 3", n)
	}
	entries := call(t, s, "SLOWLOG", "GET", "2").([]any)
	if len(entries) != 2 {
		t.Fatalf("SLOWLOG GET 2 returned %d entries", len(entries))
	}
	e := entries[0].([]any)
	if len(e) != 7 {
		t.Fatalf("slowlog entry has %d fields, want 7: %v", len(e), e)
	}
	args := e[3].([]any)
	if len(args) == 0 {
		t.Fatalf("slowlog entry has empty args: %v", e)
	}
	// At least one recorded entry must be a key command with its home
	// shard and a nonzero modeled cycle cost attached.
	var sawKeyCmd bool
	for _, raw := range call(t, s, "SLOWLOG", "GET", "0").([]any) {
		e := raw.([]any)
		cmd := strings.ToUpper(string(e[3].([]any)[0].([]byte)))
		shard, cycles := e[4].(int64), e[5].(int64)
		detail := string(e[6].([]byte))
		if cmd == "GET" || cmd == "SET" {
			sawKeyCmd = true
			if shard != 0 {
				t.Fatalf("%s entry shard = %d, want 0 (1-shard server)", cmd, shard)
			}
			if cycles <= 0 {
				t.Fatalf("%s entry cycles = %d, want > 0", cmd, cycles)
			}
			if !strings.Contains(detail, "tlb_misses=") {
				t.Fatalf("%s entry detail missing breakdown: %q", cmd, detail)
			}
		}
	}
	if !sawKeyCmd {
		t.Fatal("no GET/SET entry in slowlog")
	}

	if got := call(t, s, "SLOWLOG", "RESET"); got != "OK" {
		t.Fatalf("SLOWLOG RESET = %v", got)
	}
	// The RESET itself may re-enter the (now empty) log afterwards.
	if n := call(t, s, "SLOWLOG", "LEN").(int64); n > 1 {
		t.Fatalf("SLOWLOG LEN after RESET = %d", n)
	}
	if _, ok := call(t, s, "SLOWLOG", "NOPE").(error); !ok {
		t.Fatal("unknown SLOWLOG subcommand not rejected")
	}
	if _, ok := call(t, s, "SLOWLOG").(error); !ok {
		t.Fatal("bare SLOWLOG not rejected")
	}
}

// TestServerMonitorFeed: MONITOR replies +OK and flags the connection;
// subsequent commands are published to the feed with their home shard.
func TestServerMonitorFeed(t *testing.T) {
	s := newTestServer(t)
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	quit, monitor := runOne(s, w, &connState{id: 1}, "MONITOR")
	if quit || !monitor {
		t.Fatalf("MONITOR: quit=%v monitor=%v", quit, monitor)
	}
	id, ch := s.tele.feed.Subscribe(16)
	defer s.tele.feed.Unsubscribe(id)

	call(t, s, "SET", "k", "v")
	select {
	case line := <-ch:
		if !strings.Contains(line, `"SET"`) || !strings.Contains(line, "[shard 0]") {
			t.Fatalf("monitor line = %q", line)
		}
	default:
		t.Fatal("SET not published to monitor feed")
	}
	call(t, s, "PING")
	select {
	case line := <-ch:
		if !strings.Contains(line, `"PING"`) || !strings.Contains(line, "[shard -1]") {
			t.Fatalf("monitor line = %q", line)
		}
	default:
		t.Fatal("PING not published to monitor feed")
	}
}

// TestServerMetricsEndpoint: a live /metrics scrape exposes per-shard
// op counters, hit-rate gauges, and the latency histograms; the JSON
// snapshot endpoint answers 404.
func TestServerMetricsEndpoint(t *testing.T) {
	s := newTestServerShards(t, 2)
	srv, addr, err := startMetricsServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%d", i)
		call(t, s, "SET", k, "v")
		call(t, s, "GET", k)
	}

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
		`addrkv_commands_total{cmd="get"} 32`,
		`addrkv_commands_total{cmd="set"} 32`,
		`addrkv_shard_ops_total{shard="0"}`,
		`addrkv_shard_ops_total{shard="1"}`,
		"addrkv_fast_path_hit_rate ",
		"addrkv_cycles_per_op ",
		`addrkv_shard_fast_hit_rate{shard="0"}`,
		`addrkv_command_latency_seconds_bucket{cmd="all",le=`,
		`addrkv_op_cycles_count{shard="0"}`,
		"addrkv_slowlog_len ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// The JSON snapshot is gone: every quantity it copied is a series.
	res, err = http.Get("http://" + addr.String() + "/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("/snapshot.json = %s, want 404", res.Status)
	}
}

// TestServerResetStatsAtomic: INFO racing RESETSTATS must never see a
// half-reset mix — engine ops zeroed while server_ops still counts, or
// vice versa. With the reset under statsMu, both counters move
// together. The producer is gated so each INFO samples at an op
// boundary: any gap bigger than the reset window itself means a torn
// reset, not in-flight skew.
func TestServerResetStatsAtomic(t *testing.T) {
	s := newTestServer(t)
	stop := make(chan struct{})
	var gate sync.Mutex // held around each SET so INFO samples between ops
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gate.Lock()
			runOne(s, w, &connState{id: 1}, "SET", "k", "v")
			gate.Unlock()
			buf.Reset()
		}
	}()
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		for i := 0; i < 50; i++ {
			runOne(s, w, &connState{id: 1}, "RESETSTATS")
			buf.Reset()
		}
	}()

	parse := func(info, field string) int64 {
		i := strings.Index(info, "\r\n"+field+":")
		if i < 0 {
			t.Fatalf("INFO missing %s:\n%s", field, info)
		}
		rest := info[i+len(field)+3:]
		v, err := strconv.ParseInt(rest[:strings.Index(rest, "\r")], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := 0; i < 200; i++ {
		gate.Lock()
		info := string(call(t, s, "INFO").([]byte))
		gate.Unlock()
		serverOps, engineOps := parse(info, "server_ops"), parse(info, "ops")
		// With the producer paused at an op boundary and INFO's statsMu
		// read lock excluding the reset, the counters must agree — a
		// torn reset would show a gap of hundreds.
		if diff := serverOps - engineOps; diff > 1 || diff < -1 {
			t.Fatalf("torn reset visible: server_ops=%d engine ops=%d", serverOps, engineOps)
		}
	}
	close(stop)
	wg.Wait()
}

// TestServerConcurrentDispatch hammers dispatch from many goroutines
// on a 4-shard server (run under -race in CI) and checks that the
// aggregate op counts come out exact: per-shard locking must lose no
// updates, and concurrent INFO/DBSIZE snapshots must not crash.
func TestServerConcurrentDispatch(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 400
	)
	s := newTestServerShards(t, 4)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			w := resp.NewWriter(&buf)
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i)
				runOne(s, w, &connState{id: 1}, "SET", key, "v")
				runOne(s, w, &connState{id: 1}, "GET", key)
				runOne(s, w, &connState{id: 1}, "EXISTS", key)
				if i%64 == 0 {
					runOne(s, w, &connState{id: 1}, "INFO")
					runOne(s, w, &connState{id: 1}, "DBSIZE")
				}
				buf.Reset()
			}
		}(g)
	}
	wg.Wait()

	if got, want := s.opsSinceMark.Load(), uint64(3*goroutines*opsEach); got != want {
		t.Fatalf("server_ops = %d, want %d", got, want)
	}
	rep := s.sys.Report()
	if got, want := rep.Ops, uint64(3*goroutines*opsEach); got != want {
		t.Fatalf("aggregate engine ops = %d, want %d", got, want)
	}
	if got, want := s.sys.Len(), goroutines*opsEach; got != want {
		t.Fatalf("DBSIZE = %d, want %d", got, want)
	}
	var perShard uint64
	for _, st := range rep.PerShard {
		perShard += st.Ops
	}
	if perShard != rep.Ops {
		t.Fatalf("per-shard ops sum %d != aggregate %d", perShard, rep.Ops)
	}
}

// TestServerMultiKeyCommands: MGET/MSET/DEL/ECHO semantics on a
// 2-shard server — positional MGET replies with null bulks for absent
// keys, MSET pairing, DEL counting, and arity errors.
func TestServerMultiKeyCommands(t *testing.T) {
	s := newTestServerShards(t, 2)

	if got := call(t, s, "MSET", "a", "1", "b", "2", "c", "3"); got != "OK" {
		t.Fatalf("MSET = %v", got)
	}
	arr := call(t, s, "MGET", "a", "missing", "c", "b").([]any)
	if len(arr) != 4 {
		t.Fatalf("MGET returned %d values", len(arr))
	}
	if string(arr[0].([]byte)) != "1" || arr[1] != nil ||
		string(arr[2].([]byte)) != "3" || string(arr[3].([]byte)) != "2" {
		t.Fatalf("MGET = %v", arr)
	}
	if got := call(t, s, "DEL", "a", "b", "nope").(int64); got != 2 {
		t.Fatalf("DEL = %v", got)
	}
	arr = call(t, s, "MGET", "a", "c").([]any)
	if arr[0] != nil || string(arr[1].([]byte)) != "3" {
		t.Fatalf("MGET after DEL = %v", arr)
	}
	if got := call(t, s, "ECHO", "hello"); string(got.([]byte)) != "hello" {
		t.Fatalf("ECHO = %v", got)
	}
	for _, bad := range [][]string{
		{"MGET"}, {"MSET"}, {"MSET", "k"}, {"MSET", "k", "v", "odd"}, {"ECHO"}, {"ECHO", "a", "b"},
	} {
		if _, ok := call(t, s, bad...).(error); !ok {
			t.Fatalf("%v not rejected", bad)
		}
	}

	// Multi-key ops count per key in server_ops and engine ops.
	cmds0, keys0 := s.tele.batchCmds.Load(), s.tele.batchKeys.Load()
	call(t, s, "RESETSTATS")
	call(t, s, "MSET", "x", "1", "y", "2")
	call(t, s, "MGET", "x", "y", "z")
	call(t, s, "DEL", "x", "y")
	info := string(call(t, s, "INFO").([]byte))
	if !strings.Contains(info, "server_ops:7") {
		t.Fatalf("multi-key ops not counted per key:\n%s", info)
	}
	if !strings.Contains(info, "\r\nops:7\r\n") {
		t.Fatalf("engine ops != 7:\n%s", info)
	}
	// The batch counters are monotonic (Prometheus rate() material),
	// so assert their deltas over the three commands above.
	if d := s.tele.batchCmds.Load() - cmds0; d != 3 {
		t.Fatalf("batch_commands delta = %d, want 3", d)
	}
	if d := s.tele.batchKeys.Load() - keys0; d != 7 {
		t.Fatalf("batched_keys delta = %d, want 7", d)
	}
	if !strings.Contains(info, "# networking") || !strings.Contains(info, "batch_commands:") {
		t.Fatalf("INFO missing networking section:\n%s", info)
	}
}

// TestServerMultiKeyOpCyclesPerOp: addrkv_op_cycles is the modeled cost
// per engine op, so an MGET of 8 keys records 8 samples — not one
// summed sample per shard group, which inflated the cycle quantiles of
// every multi-key command.
func TestServerMultiKeyOpCyclesPerOp(t *testing.T) {
	s := newTestServer(t)
	mget := []string{"MGET"}
	for i := 0; i < 8; i++ {
		mget = append(mget, fmt.Sprintf("oc-%d", i))
		call(t, s, "SET", mget[i+1], "v")
	}
	call(t, s, "RESETSTATS")
	call(t, s, mget...)
	var buf bytes.Buffer
	if err := s.tele.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `addrkv_op_cycles_count{shard="0"} 8` + "\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, buf.String())
	}
}

// TestServerMultiKeySlowlogAndMonitor: a multi-key command's slowlog
// entry and MONITOR line sum its ops — the home shard when every key
// lives on one shard and -1 otherwise, the modeled cycles of all its
// ops, and a detail naming the shards touched, the keys and the misses.
func TestServerMultiKeySlowlogAndMonitor(t *testing.T) {
	s := newTestServerShards(t, 2)
	c := s.sys.Cluster()
	var on [2][]string // stored keys by home shard
	for i := 0; len(on[0]) < 2 || len(on[1]) < 1; i++ {
		k := fmt.Sprintf("sm-%d", i)
		call(t, s, "SET", k, "v")
		on[c.ShardFor([]byte(k))] = append(on[c.ShardFor([]byte(k))], k)
	}
	id, feed := s.tele.feed.Subscribe(16)
	defer s.tele.feed.Unsubscribe(id)
	for _, tc := range []struct {
		args          []string
		shard         int
		detail, count string
	}{
		{[]string{"MGET", on[0][0], on[0][1]}, 0, "shards=1 keys=2 ", " misses=0 "},
		{[]string{"MGET", on[0][0], on[1][0], "sm-absent"}, -1, "shards=2 keys=3 ", " misses=1 "},
	} {
		before := s.sys.Report().Cycles
		call(t, s, tc.args...)
		cycles := s.sys.Report().Cycles - before
		var got *telemetry.SlowlogEntry
		for _, e := range s.tele.slowlog.Entries(-1) {
			if strings.Join(e.Args, " ") == strings.Join(tc.args, " ") {
				got = &e
			}
		}
		if got == nil || got.Shard != tc.shard || got.Cycles != uint64(cycles) ||
			!strings.HasPrefix(got.Detail, tc.detail) || !strings.Contains(got.Detail, tc.count) {
			t.Fatalf("%v: slowlog entry %+v, want shard %d, cycles %d, detail %q…%q…",
				tc.args, got, tc.shard, cycles, tc.detail, tc.count)
		}
		if line := <-feed; !strings.Contains(line, fmt.Sprintf("[shard %d]", tc.shard)) {
			t.Fatalf("%v: monitor line %q, want shard %d", tc.args, line, tc.shard)
		}
	}
}

// TestServerEmptyValueIsNotAMiss: a stored empty value reads back as an
// empty bulk through GET and MGET, on a connection whose request slots
// have never held a value, and only an absent key is a null bulk.
func TestServerEmptyValueIsNotAMiss(t *testing.T) {
	s := newTestServer(t)
	call(t, s, "SET", "empty", "")
	if got, ok := call(t, s, "GET", "empty").([]byte); !ok || len(got) != 0 {
		t.Fatalf("GET of an empty value = %#v", got)
	}
	arr := call(t, s, "MGET", "empty", "absent").([]any)
	if got, ok := arr[0].([]byte); !ok || len(got) != 0 || arr[1] != nil {
		t.Fatalf("MGET = %#v", arr)
	}
}

// TestServerBatchedMatchesSequentialServer: the same traffic sent as
// multi-key commands and as single-key commands must leave two
// servers' engines bit-for-bit identical — the server-level face of
// the batch determinism contract.
func TestServerBatchedMatchesSequentialServer(t *testing.T) {
	batched := newTestServerShards(t, 2)
	single := newTestServerShards(t, 2)

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	msetArgs := []string{"MSET"}
	for _, k := range keys {
		msetArgs = append(msetArgs, k, "val-"+k)
	}
	call(t, batched, msetArgs...)
	for _, k := range keys {
		call(t, single, "SET", k, "val-"+k)
	}
	mgetArgs := append([]string{"MGET"}, keys...)
	gotArr := call(t, batched, mgetArgs...).([]any)
	for i, k := range keys {
		want := call(t, single, "GET", k)
		if string(gotArr[i].([]byte)) != string(want.([]byte)) {
			t.Fatalf("MGET[%d] = %q, GET = %q", i, gotArr[i], want)
		}
	}
	if nb, ns := call(t, batched, append([]string{"DEL"}, keys[:10]...)...).(int64), int64(0); true {
		for _, k := range keys[:10] {
			ns += call(t, single, "DEL", k).(int64)
		}
		if nb != ns {
			t.Fatalf("DEL batched = %d, sequential = %d", nb, ns)
		}
	}

	br, sr := batched.sys.Report(), single.sys.Report()
	if br.Ops != sr.Ops || br.Cycles != sr.Cycles {
		t.Fatalf("batched server diverged: ops %d/%d cycles %d/%d",
			br.Ops, sr.Ops, br.Cycles, sr.Cycles)
	}
	for i := range br.PerShard {
		if br.PerShard[i] != sr.PerShard[i] {
			t.Fatalf("shard %d diverged:\nbatched: %+v\nsingle:  %+v",
				i, br.PerShard[i], sr.PerShard[i])
		}
	}
}

// pipeClient connects a client RESP reader/writer to a served
// in-memory connection.
func pipeClient(t *testing.T, s *server) (*resp.Reader, *resp.Writer, net.Conn) {
	t.Helper()
	client, srv := net.Pipe()
	if !s.track(srv) {
		srv.Close()
		t.Fatal("track refused connection")
	}
	go s.serve(srv)
	t.Cleanup(func() { client.Close() })
	return resp.NewReader(client), resp.NewWriter(client), client
}

// tcpFrontend serves s on a real TCP listener through acceptLoop. The
// listener closes when the test ends, before the server's own close.
func tcpFrontend(t *testing.T, s *server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.acceptLoop(ln)
	t.Cleanup(func() { ln.Close() })
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

// TestServePipelinedConnection: a burst of pipelined commands over one
// connection gets every reply in order, and INFO records the drain.
func TestServePipelinedConnection(t *testing.T) {
	s := newTestServer(t)
	r, w, _ := pipeClient(t, s)

	const n = 50
	for i := 0; i < n; i++ {
		w.WriteCommand([]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	for i := 0; i < n; i++ {
		w.WriteCommand([]byte("GET"), []byte(fmt.Sprintf("k%d", i)))
	}
	w.WriteCommand([]byte("PING"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := r.ReadReply(); err != nil || v != "OK" {
			t.Fatalf("SET %d reply = %v, %v", i, v, err)
		}
	}
	for i := 0; i < n; i++ {
		if v, err := r.ReadReply(); err != nil || string(v.([]byte)) != "v" {
			t.Fatalf("GET %d reply = %v, %v", i, v, err)
		}
	}
	if v, err := r.ReadReply(); err != nil || v != "PONG" {
		t.Fatalf("PING reply = %v, %v", v, err)
	}

	if got := s.tele.pipeCmds.Load(); got != 2*n+1 {
		t.Fatalf("pipelined_commands = %d, want %d", got, 2*n+1)
	}
	// The whole burst was written before the server read any of it, so
	// it must have been drained in far fewer batches than commands.
	if batches := s.tele.pipeBatches.Load(); batches == 0 || batches > uint64(n) {
		t.Fatalf("pipeline_batches = %d for %d commands", batches, 2*n+1)
	}
}

// TestServePipelineDepthCap: one drain picks up at most maxPipeline
// commands. 1100 PINGs (15 400 bytes) reach the server in one read, so
// without the cap they would be one batch.
func TestServePipelineDepthCap(t *testing.T) {
	s := newTestServer(t)
	r, w, _ := pipeClient(t, s)
	const n = maxPipeline + 76
	for i := 0; i < n; i++ {
		w.WriteCommand([]byte("PING"))
	}
	if w.Buffered() >= resp.IOBufLen {
		t.Fatalf("the burst is %d bytes: it no longer fits one read", w.Buffered())
	}
	w.Flush()
	for i := 0; i < n; i++ {
		if v, err := r.ReadReply(); err != nil || v != "PONG" {
			t.Fatalf("reply %d = %v, %v", i, v, err)
		}
	}
	if b, c := s.tele.pipeBatches.Load(), s.tele.pipeCmds.Load(); b != 2 || c != n {
		t.Fatalf("%d commands drained as %d batch(es) holding %d, want 2 (cap %d)", n, b, c, maxPipeline)
	}
}

// TestServeWriteBufEarlyFlush: a burst whose replies outgrow the
// connection's reply buffer (resp.IOBufLen) is flushed early instead of
// being held whole.
func TestServeWriteBufEarlyFlush(t *testing.T) {
	s := newTestServer(t)
	r, w, _ := pipeClient(t, s)
	big := strings.Repeat("x", resp.IOBufLen/4+200) // 8 of them overflow the buffer
	w.WriteCommand([]byte("SET"), []byte("big"), []byte(big))
	for i := 0; i < 8; i++ {
		w.WriteCommand([]byte("GET"), []byte("big"))
	}
	w.Flush()
	if v, err := r.ReadReply(); err != nil || v != "OK" {
		t.Fatalf("SET reply = %v, %v", v, err)
	}
	for i := 0; i < 8; i++ {
		if v, err := r.ReadReply(); err != nil || string(v.([]byte)) != big {
			t.Fatalf("GET %d reply wrong: %v", i, err)
		}
	}
	if s.tele.earlyFlush.Load() == 0 {
		t.Fatal("no early flush though the replies outgrew the buffer")
	}
}

// TestServerMaxConnsShed: connections beyond -maxconns receive one
// error reply and a close; tracked connections still work; a freed
// slot becomes available again.
func TestServerMaxConnsShed(t *testing.T) {
	cfg := testConfig(1)
	cfg.maxConns = 1
	s := newConfigServer(t, cfg, false)
	r1, w1, _ := pipeClient(t, s)

	// Second connection: the accept loop would refuse and shed it.
	c2, srv2 := net.Pipe()
	if s.track(srv2) {
		t.Fatal("track admitted connection over maxconns")
	}
	done := make(chan struct{})
	s.wg.Add(1) // shed goroutines are tracked like served connections
	go func() { s.shed(srv2); close(done) }()
	v, err := resp.NewReader(c2).ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := v.(error); !ok || !strings.Contains(e.Error(), "max number of clients") {
		t.Fatalf("shed reply = %v", v)
	}
	<-done
	c2.Close()
	if s.tele.shedConns.Load() != 1 {
		t.Fatalf("shed_conns = %d", s.tele.shedConns.Load())
	}

	// The admitted connection still serves.
	w1.WriteCommand([]byte("PING"))
	w1.Flush()
	if v, err := r1.ReadReply(); err != nil || v != "PONG" {
		t.Fatalf("PING on admitted conn = %v, %v", v, err)
	}

	// Quitting frees the slot.
	w1.WriteCommand([]byte("QUIT"))
	w1.Flush()
	if v, err := r1.ReadReply(); err != nil || v != "OK" {
		t.Fatalf("QUIT = %v, %v", v, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.tele.activeConns.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection not untracked after QUIT")
		}
		time.Sleep(time.Millisecond)
	}
	c3, srv3 := net.Pipe()
	defer c3.Close()
	if !s.track(srv3) {
		t.Fatal("slot not freed after QUIT")
	}
	go s.serve(srv3)
}

// TestServerIdleTimeout: a client silent past -idle-timeout is
// disconnected.
func TestServerIdleTimeout(t *testing.T) {
	cfg := testConfig(1)
	cfg.idleTimeout = 30 * time.Millisecond
	s := newConfigServer(t, cfg, false)
	r, w, _ := pipeClient(t, s)
	w.WriteCommand([]byte("PING"))
	w.Flush()
	if v, err := r.ReadReply(); err != nil || v != "PONG" {
		t.Fatalf("PING = %v, %v", v, err)
	}
	// Stay silent; the server must close the connection.
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("idle connection not closed")
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
// semantics: "idle" means no BYTES for the timeout, so a client
// trickling a pipelined burst slower than the timeout (but with
// steady byte arrival) is never reaped mid-burst — idleConn re-arms
// the deadline per read. A genuinely silent connection on the same
// server IS reaped.
func TestIdleTimeoutMidBurst(t *testing.T) {
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

	t.Run("goroutine", func(t *testing.T) {
		const idle = 120 * time.Millisecond
		cfg := testConfig(1)
		cfg.idleTimeout = idle
		s := newConfigServer(t, cfg, false)
		addr := tcpFrontend(t, s)

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

// TestServeMonitorSocket drives monitorLoop over a live socket: the
// monitor sees another connection's traffic, any command detaches it
// and closes the connection, and a command pipelined right behind
// MONITOR — still unparsed in the connection's reader — detaches at
// once.
func TestServeMonitorSocket(t *testing.T) {
	s := newWorkerServer(t, 1)
	addr := tcpFrontend(t, s)

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
	_, ow, _ := tcpClient(t, addr)
	ow.WriteCommand([]byte("SET"), []byte("spied"), []byte("on"))
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	mconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	v, err := mr.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if line, ok := v.(string); !ok || !strings.Contains(line, "spied") {
		t.Fatalf("monitor line = %v", v)
	}
	// Any command detaches; the serve goroutine closes the conn.
	if err := mw.WriteCommand([]byte("PING")); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := mr.ReadReply(); err == nil || isTimeout(err) {
		t.Fatalf("monitor conn still open after detach command: %v", err)
	}

	// MONITOR as the last command a burst can hold, PING right behind
	// it: the cap leaves PING UNPARSED in the reader's buffer, where
	// monitorLoop's own read finds it, and the monitor detaches at once.
	// (A PING parsed into MONITOR's burst is dropped.) net.Pipe hands the
	// server the whole write in one read.
	lr, lw, lconn := pipeClient(t, s)
	for i := 0; i < maxPipeline-1; i++ {
		lw.WriteCommand([]byte("PING"))
	}
	lw.WriteCommand([]byte("MONITOR"))
	lw.WriteCommand([]byte("PING"))
	if lw.Buffered() >= resp.IOBufLen {
		t.Fatalf("the burst is %d bytes: it no longer fits one read", lw.Buffered())
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	lconn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < maxPipeline-1; i++ {
		if v, err := lr.ReadReply(); err != nil || v != "PONG" {
			t.Fatalf("PING %d ahead of MONITOR: %v, %v", i, v, err)
		}
	}
	if v, err := lr.ReadReply(); err != nil || v != "OK" {
		t.Fatalf("pipelined MONITOR ack: %v, %v", v, err)
	}
	for {
		v, err := lr.ReadReply()
		if err != nil {
			if isTimeout(err) {
				t.Fatal("command pipelined behind MONITOR did not detach")
			}
			break // detached and closed — success
		}
		if _, ok := v.(string); !ok {
			t.Fatalf("unexpected monitor reply %v", v)
		}
	}
}

// TestServeMalformedSocket: a malformed command closes the connection,
// but only after every complete command ahead of it has been answered.
func TestServeMalformedSocket(t *testing.T) {
	s := newWorkerServer(t, 1)
	r, _, conn := tcpClient(t, tcpFrontend(t, s))
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

package kvproc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"addrkv/internal/resp"
)

// The tests build nothing: the test binary re-executes itself as the
// child, in the role modeEnv names.
const (
	modeEnv   = "KVPROC_TEST_MODE"   // server | stubborn | bench | helper
	errorsEnv = "KVPROC_TEST_ERRORS" // bench: the errors field to report
	onceEnv   = "KVPROC_TEST_BINDFAIL"
)

func TestMain(m *testing.M) {
	switch os.Getenv(modeEnv) {
	case "":
		os.Exit(m.Run())
	case "stubborn":
		signal.Ignore(os.Interrupt)
		fakeServer()
	case "server":
		fakeServer()
	case "bench":
		fakeBench()
	case "helper":
		// Start a server, say which pid it has, and die through Fatal.
		os.Setenv(modeEnv, "server")
		cl, err := StartCluster(os.Args[0], 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(3)
		}
		fmt.Println(cl.Procs[0].cmd.Process.Pid)
		Fatal("helper", errors.New("boom"))
	}
}

// fakeServer listens where the last -addr says and answers PING, INFO
// and ARGS (its own command line). With onceEnv naming a file that does
// not exist yet, it creates the file and dies the way a kvserve that
// lost the port race does.
func fakeServer() {
	if marker := os.Getenv(onceEnv); marker != "" {
		if _, err := os.Stat(marker); err != nil {
			os.WriteFile(marker, nil, 0o644)
			fmt.Fprintln(os.Stderr, "kvserve: listen tcp 127.0.0.1:1: bind: address already in use")
			os.Exit(1)
		}
	}
	var addr string
	for i, a := range os.Args[:len(os.Args)-1] {
		if a == "-addr" {
			addr = os.Args[i+1]
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			os.Exit(1)
		}
		go func() {
			defer conn.Close()
			r, w := resp.NewReader(conn), resp.NewWriter(conn)
			for {
				args, err := r.ReadCommand()
				if err != nil {
					return
				}
				switch string(args[0]) {
				case "PING":
					w.WriteSimple("PONG")
				case "INFO":
					w.WriteBulkString("# section\r\nops:7\r\nrate:0.5\r\nstate:ok\r\n")
				case "ARGS":
					w.WriteBulkString(strings.Join(os.Args[1:], " "))
				default:
					w.WriteError("ERR unknown")
				}
				w.Flush()
			}
		}()
	}
}

// fakeBench writes the artifact a one-point kvbench run would.
func fakeBench() {
	n, _ := strconv.ParseUint(os.Getenv(errorsEnv), 10, 64)
	art := BenchArtifact{Sweep: []DepthResult{{Depth: 16, Conns: 2, Ops: 100, Errors: n, OpsPerSec: 1234.5}}}
	for i, a := range os.Args[:len(os.Args)-1] {
		if a == "-json" {
			if err := WriteJSON(os.Args[i+1], &art); err != nil {
				os.Exit(1)
			}
		}
	}
	os.Exit(0)
}

// gone reports whether no process has pid any more.
func gone(pid int) bool { return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) }

func registered() int {
	live.Lock()
	defer live.Unlock()
	return len(live.procs)
}

func TestStartDoStop(t *testing.T) {
	t.Setenv(modeEnv, "server")
	cl, err := StartCluster(os.Args[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := resp.Dial("tcp", cl.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, err := c.Do("PING"); err != nil || v != "PONG" {
		t.Fatalf("PING = %v, %v", v, err)
	}

	info, err := Info(c, "INFO")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := info.Uint("ops"); err != nil || n != 7 {
		t.Errorf("ops = %d, %v", n, err)
	}
	if info["state"] != "ok" {
		t.Errorf("state = %q", info["state"])
	}
	if _, err := info.Uint("renamed"); err == nil {
		t.Error("an absent field read as a number")
	}
	if _, err := info.Uint("state"); err == nil {
		t.Error("a non-numeric field read as a number")
	}
	if _, err := Info(c, "PING"); err == nil {
		t.Error("Info accepted a non-bulk reply")
	}

	pid := cl.Procs[0].cmd.Process.Pid
	cl.Stop()
	if !gone(pid) || registered() != 0 {
		t.Fatalf("after Stop: pid gone %v, %d registered", gone(pid), registered())
	}
}

func TestStartFailsWhenChildExits(t *testing.T) {
	t.Setenv(modeEnv, "server")
	t0 := time.Now()
	// The fake listens on the last -addr, which it cannot bind.
	_, err := StartCluster(os.Args[0], 1, "-addr", "127.0.0.1:-1")
	if err == nil || !strings.Contains(err.Error(), "exited before") {
		t.Fatalf("err = %v, want an early-exit error", err)
	}
	if time.Since(t0) > readyTimeout/2 || registered() != 0 {
		t.Fatalf("took %v, %d registered", time.Since(t0), registered())
	}
}

func TestStopEscalatesToKill(t *testing.T) {
	defer func(d time.Duration) { stopGrace = d }(stopGrace)
	stopGrace = 50 * time.Millisecond
	t.Setenv(modeEnv, "stubborn")
	cl, err := StartCluster(os.Args[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	p := cl.Procs[0]
	t0 := time.Now()
	cl.Stop()
	if d := time.Since(t0); d < stopGrace {
		t.Fatalf("Stop returned after %v: the child did not ignore SIGINT", d)
	}
	if ws := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child ended with %v, want SIGKILL", p.cmd.ProcessState)
	}
}

// TestFatalLeavesNoOrphan: a tool that dies through Fatal after it
// started a server takes the server with it. At b067d46 every script's
// fatal was os.Exit(1), which left the servers running and holding the
// caller's stderr open.
func TestFatalLeavesNoOrphan(t *testing.T) {
	helper := exec.Command(os.Args[0])
	helper.Env = append(os.Environ(), modeEnv+"=helper")
	stdout, err := helper.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := helper.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	line, _ := bufio.NewReader(stdout).ReadString('\n')
	pid, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		t.Fatalf("helper printed %q, want the server's pid", line)
	}
	eof := make(chan string)
	go func() {
		b, _ := io.ReadAll(stderr)
		eof <- string(b)
	}()
	select {
	case msg := <-eof:
		if !strings.Contains(msg, "helper: boom") {
			t.Errorf("helper stderr = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the helper's stderr never reached EOF: something still holds it open")
	}
	var ee *exec.ExitError
	if err := helper.Wait(); !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("helper exit = %v, want status 1", err)
	}
	if !gone(pid) {
		syscall.Kill(pid, syscall.SIGKILL)
		t.Fatalf("server pid %d outlived the tool that started it", pid)
	}
}

func TestStartCluster(t *testing.T) {
	t.Setenv(modeEnv, "server")
	t.Setenv(onceEnv, filepath.Join(t.TempDir(), "raced")) // the first boot loses the port race
	cl, err := StartCluster(os.Args[0], 2, "-shards", "2")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	spec := ""
	for i, p := range cl.Procs {
		c, err := resp.Dial("tcp", cl.Addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Do("ARGS")
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		args := strings.Fields(string(v.([]byte)))
		want := []string{"-addr", cl.Addrs[i], "-metrics-addr", cl.Metrics[i], "-cluster-nodes", args[5], "-cluster-self", strconv.Itoa(i), "-shards", "2"}
		if strings.Join(args, " ") != strings.Join(want, " ") || p.addr != cl.Addrs[i] {
			t.Fatalf("node %d ran with %q", i, args)
		}
		if i > 0 && args[5] != spec {
			t.Fatalf("nodes disagree on -cluster-nodes: %q vs %q", args[5], spec)
		}
		spec = args[5]
	}
	// addr@bus per node, six distinct ports in all with the metrics ones.
	seen := map[string]bool{}
	for _, a := range append(strings.FieldsFunc(spec, func(r rune) bool { return r == '@' || r == ',' }), cl.Metrics...) {
		seen[a] = true
	}
	if len(seen) != 6 || !strings.HasPrefix(spec, cl.Addrs[0]+"@") {
		t.Fatalf("-cluster-nodes %q, metrics %q: want six distinct addresses", spec, cl.Metrics)
	}
}

func TestBench(t *testing.T) {
	t.Setenv(modeEnv, "bench")
	t.Setenv(errorsEnv, "0")
	sweep, err := Bench(os.Args[0], "-sock", "unused")
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 1 || sweep[0].Depth != 16 || sweep[0].Ops != 100 || sweep[0].OpsPerSec != 1234.5 {
		t.Fatalf("sweep = %+v", sweep)
	}
	t.Setenv(errorsEnv, "3")
	if _, err := Bench(os.Args[0], "-sock", "unused"); err == nil || !strings.Contains(err.Error(), "3 error replies") {
		t.Fatalf("err = %v, want the error replies reported", err)
	}
	if _, err := Bench("/bin/false"); err == nil {
		t.Fatal("a failed kvbench run returned no error")
	}
	if registered() != 0 {
		t.Fatalf("%d children still registered", registered())
	}
}

func TestWriteJSONStampsHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "a.json")
	art := struct {
		Header
		Rows []int `json:"rows"`
	}{Header: Header{Name: "t", Params: map[string]any{"k": 1}}, Rows: []int{1, 2}}
	if err := WriteJSON(path, &art); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Name string
		Host struct {
			NumCPU int `json:"num_cpu"`
		}
		Rows []int
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "t" || back.Host.NumCPU < 1 || len(back.Rows) != 2 || strings.Contains(string(raw), `"kind"`) {
		t.Fatalf("artifact = %s", raw)
	}
}

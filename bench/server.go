package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a launched server may take to answer
// PING, recovery replay included.
const readyTimeout = 60 * time.Second

// findRoot walks up from the working directory to the addrkv module
// root, the directory kvserve is built from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module addrkv\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the addrkv module: no go.mod with \"module addrkv\" above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/kvserve from the working tree into dir.
func buildServer(dir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(dir, "kvserve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kvserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/kvserve: %w\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// children tracks every live server so that an exit, a signal or a
// panic can kill them all.
var children struct {
	sync.Mutex
	live map[*server]struct{}
}

func killChildren() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// server is one kvserve child in its own process group.
type server struct {
	cmd     *exec.Cmd
	sock    string
	errPath string
	errFile *os.File
	started time.Time
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// startServer launches kvserve with the fewest flags the workload needs.
// dir holds the socket, the captured stderr and, with aof, the log
// directory; starting again on the same dir recovers from that log.
func startServer(bin, dir string, w workload, metrics bool) (*server, error) {
	sock := filepath.Join(dir, "s.sock")
	args := []string{"-mode", "stlt", "-keys", strconv.Itoa(w.keys), "-shards", "2", "-preload", "-sock", sock}
	if w.aof {
		args = append(args, "-aof", "-aof-dir", filepath.Join(dir, "aof"), "-aof-fsync", "always")
	}
	if metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	errPath := filepath.Join(dir, "kvserve.stderr")
	errFile, err := os.OpenFile(errPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = errFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	s := &server{cmd: cmd, sock: sock, errPath: errPath, errFile: errFile, exited: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		errFile.Close()
		return nil, fmt.Errorf("start kvserve: %w", err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*server]struct{}{}
	}
	children.live[s] = struct{}{}
	children.Unlock()
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stderrTail returns the end of the captured stderr for error messages.
func (s *server) stderrTail() string {
	b, _ := os.ReadFile(s.errPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// waitReady polls PING until the server answers, failing at once if the
// child exits first. It returns the time from launch to the first PONG.
func (s *server) waitReady() (time.Duration, error) {
	deadline := s.started.Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("kvserve exited before it was ready: %v\n%s", s.waitErr, s.stderrTail())
		default:
		}
		if err := ping(s.sock); err == nil {
			return time.Since(s.started), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("kvserve not ready after %v\n%s", readyTimeout, s.stderrTail())
}

func ping(sock string) error {
	nc, err := net.DialTimeout("unix", sock, time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	if _, err := nc.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		return err
	}
	var scratch []byte
	r, err := readReply(bufio.NewReader(nc), &scratch)
	if err != nil {
		return err
	}
	if r.kind != '+' || string(r.body) != "PONG" {
		return fmt.Errorf("PING answered %c%q", r.kind, r.body)
	}
	return nil
}

// kill sends SIGKILL to the child's process group and waits for it.
func (s *server) kill() {
	_ = syscall.Kill(-s.pid(), syscall.SIGKILL)
	<-s.exited
	s.errFile.Close()
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// metricsAddr finds the bound /metrics address in the server's log;
// the flag asked for port 0.
func (s *server) metricsAddr() (string, error) {
	log, err := os.ReadFile(s.errPath)
	if err != nil {
		return "", err
	}
	re := regexp.MustCompile(`metrics on http://([0-9.:]+)/metrics`)
	if m := re.FindSubmatch(log); m != nil {
		return string(m[1]), nil
	}
	return "", errors.New("kvserve did not log its metrics address")
}

// series is a parsed /metrics page: each sample line's value under its
// full name, labels included.
type series map[string]float64

func (s *server) scrape() (series, error) {
	addr, err := s.metricsAddr()
	if err != nil {
		return nil, err
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseSeries(string(b)), nil
}

func parseSeries(page string) series {
	out := series{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every sample whose name, before any label, is name. A series
// the server does not export sums to 0 with ok false.
func (s series) sum(name string) (total float64, ok bool) {
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
			ok = true
		}
	}
	return
}

// each lists every sample of name, one per label set.
func (s series) each(name string) []float64 {
	var out []float64
	for k, v := range s {
		if strings.HasPrefix(k, name+"{") {
			out = append(out, v)
		}
	}
	return out
}

// procSample is what /proc says about the child at one instant.
type procSample struct {
	cpu         time.Duration // utime+stime of the whole process
	ctxSwitches int64         // voluntary+involuntary, summed over threads
	rssKB       int64
	peakRSSKB   int64
	at          time.Time
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux the repo targets.
const clockTick = 10 * time.Millisecond

func sampleProc(pid int) (procSample, error) {
	p := procSample{at: time.Now()}
	base := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, so 12 and 13 after ") ".
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 14 {
		return p, fmt.Errorf("unexpected %s/stat", base)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.cpu = time.Duration(ut+st) * clockTick

	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return p, err
	}
	p.rssKB = statusField(status, "VmRSS:")
	p.peakRSSKB = statusField(status, "VmHWM:")

	tasks, err := filepath.Glob(base + "/task/*/status")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		p.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
	}
	return p, nil
}

// statusField returns the integer after key in a /proc status file.
func statusField(status []byte, key string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

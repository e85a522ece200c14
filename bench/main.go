// Command bench is the repository's benchmark: four workloads, ten
// end-to-end metrics and a per-layer ledger, all measured from outside
// the program. It builds ./cmd/kvserve from the working tree and drives
// it over a Unix socket with its own closed-loop RESP load generator, and
// drives the simulator in-process through addrkv and internal/shard.
// Every reply is verified against a model. See README.md beside this
// file for the catalogue.
//
//	go run -C bench . --workload serve-pipeline --seed 42 --seconds 10 --trace 0
//	go run -C bench . --seed 42          # every workload, untraced then traced
//	go run -C bench . -selfcheck         # the untraced suite twice, against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"addrkv/internal/hostmeta"
)

// buildDir is the one directory of the checkout the benchmark writes
// to. It is listed in .gitignore.
const buildDir = ".bench_build"

// hostLine is the stamp printed above every table: the host
// fingerprint, the commit, and what kind of link the load crossed.
func hostLine(root string) string {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := hostmeta.Collect()
	var b strings.Builder
	fmt.Fprintf(&b, "# host: %s %s/%s nproc=%d commit=%s; generator, server and builds pinned to one CPU\n", h.GoVersion, h.GOOS, h.GOARCH, hostCPUs(), commit)
	fmt.Fprintf(&b, "# transport: Unix-socket loopback, closed loop; no wire latency is claimed\n")
	if hostCPUs() < 2 {
		fmt.Fprintf(&b, "# UNRESOLVED: nproc < 2, connections clamped to 1; served timing metrics are not comparable with a multi-CPU capture\n")
	}
	return b.String()
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs every workload, untraced then traced")
		seed      = flag.Uint64("seed", 42, "seed of the op streams")
		seconds   = flag.Float64("seconds", 20, "length of the measured window, in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics")
		scale     = flag.Float64("scale", 1, "shrink key and op counts by this factor (smoke tests)")
		out       = flag.String("out", "", "directory for trace-<workload>.json (default: the run's private directory, removed at exit)")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and compare every metric with its bound")
	)
	flag.Parse()
	if err := pinToOneCPU(); err != nil {
		fatal(fmt.Errorf("pin to one CPU: %w", err))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if *out, err = filepath.Abs(*out); err != nil {
			fatal(err)
		}
	}
	// Relative paths from the module root keep the socket path far below
	// the 108-byte limit however deep the checkout sits.
	if err := os.Chdir(root); err != nil {
		fatal(err)
	}

	code := 0
	switch {
	case *selfcheck:
		code = runSelfcheck(*seed, *seconds, *scale)
	case *name == "":
		code = runAll(*seed, *seconds, *scale, *out)
	default:
		code = runOne(root, *name, *seed, *seconds, *trace, *scale, *out)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload once and prints its table and result line.
func runOne(root, name string, seed uint64, seconds float64, trace int, scale float64, outDir string) (code int) {
	w, err := workloadByName(name)
	if err != nil {
		fatal(err)
	}
	w = w.scaled(scale)
	if n := hostCPUs(); w.conns > n {
		w.conns = n
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	e := env{work: work, outDir: outDir}
	if e.outDir == "" {
		e.outDir = work
	}

	// Servers die with the benchmark: on return, on a signal, on a panic.
	cleanup := func() {
		killChildren()
		os.RemoveAll(work)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	defer func() {
		cleanup()
		if r := recover(); r != nil {
			panic(r)
		}
	}()

	// The yardstick is built before anything is started, so that by its
	// first reading it is no fresher in the cache than by any other.
	refInit()

	fmt.Printf("# addrkv bench: workload=%s seed=%d seconds=%g trace=%d scale=%g\n", w.name, seed, seconds, trace, scale)
	fmt.Printf("# why: %s\n", w.why)
	fmt.Print(hostLine(root))

	if w.served {
		if e.bin, e.buildS, err = buildServer(work); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Printf("# bench.build_s %.3f s (go build ./cmd/kvserve, outside every metric)\n", e.buildS)
	}

	var ms *metricSet
	var c counts
	switch {
	case trace != 0:
		ms, c, err = runTraced(e, w, seed, seconds)
	case w.served:
		ms, c, err = runServed(e, w, seed, seconds)
	default:
		ms, c, err = runSim(w, seed, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if c.attempted < 1 {
		fmt.Fprintln(os.Stderr, "bench: no operation was attempted")
		return 2
	}
	if w.served && hostCPUs() < 2 {
		// One CPU serialises the generator and the server: these numbers
		// are not comparable with a multi-CPU capture.
		for _, name := range []string{"throughput_ops_s", "latency_p50_us", "latency_p99_us"} {
			if _, ok := ms.vals[name]; ok {
				ms.note[name] = "UNRESOLVED (nproc < 2); " + ms.note[name]
			}
		}
	}
	if trace == 0 {
		ms.setNote("verified_share", float64(c.attempted-c.failed)/float64(c.attempted),
			fmt.Sprintf("%d attempted, %d failed", c.attempted, c.failed))
	} else {
		ms.fillZero()
	}
	metrics, err := ms.metrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printTable(ms)
	for _, msg := range c.errs {
		fmt.Printf("# FAILED: %s\n", msg)
	}
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(ms *metricSet) {
	fmt.Printf("%-34s %16s  %-10s %s\n", "metric", "value", "unit", "note")
	for _, d := range ms.defs {
		fmt.Printf("%-34s %16.6g  %-10s %s\n", d.name, ms.vals[d.name], d.unit, ms.note[d.name])
	}
}

// child re-runs this binary for one workload and returns its result
// line. Each workload gets a process of its own so that one run's memory
// never shows in another's peak_rss_mb.
func child(name string, seed uint64, seconds float64, trace int, scale float64, outDir string, echo bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "-scale", fmt.Sprint(scale)}
	if outDir != "" {
		args = append(args, "-out", outDir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outb), "\n"), "\n")
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return res, errors.Join(err, fmt.Errorf("%s: no result line: %w", name, jerr))
	}
	return res, err
}

// runAll prints every metric of every workload: the untraced run, then
// the traced one.
func runAll(seed uint64, seconds, scale float64, outDir string) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(w.name, seed, seconds, trace, scale, outDir, true)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d: correct=%v failed=%d err=%v\n", w.name, trace, res.Correct, res.Failed, err)
				code = 1
			}
			fmt.Println()
		}
	}
	return code
}

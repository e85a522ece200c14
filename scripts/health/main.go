// Command health orchestrates the fleet-observability experiment and
// writes BENCH_health.json:
//
//  1. boots a 3-node heartbeat-enabled cluster (each node with a
//     metrics listener) and waits until every node's CLUSTER HEALTH
//     row reports ok/up on a survivor's aggregated view;
//  2. measures heartbeat + report-collection overhead with interleaved
//     A/B legs: kvbench -cluster throughput with CLUSTER HEARTBEAT OFF
//     vs ON (a scraper hammering /cluster/metrics during the ON legs),
//     paired per round, overhead = 1 - median(on/off) — the same
//     paired-median method kvbench -trace-overhead uses;
//  3. kills one node (SIGKILL, no goodbye) and times how long a
//     survivor takes to flip it to state:down in CLUSTER HEALTH. The
//     deadline is down_after x interval plus one bus RTT; the script
//     asserts detection within that bound plus a scheduling margin,
//     verifies the dead node's report series disappeared from
//     /cluster/metrics while its liveness series report down, and keeps
//     the survivor's CLUSTER HEALTH line for the dead node.
//
// Usage (from the repo root):
//
//	go build -o /tmp/kvserve ./cmd/kvserve
//	go build -o /tmp/kvbench ./cmd/kvbench
//	go run ./scripts/health -kvserve /tmp/kvserve -kvbench /tmp/kvbench \
//	    -json results/BENCH_health.json
//
// A missed detection deadline, surviving dead-node series, or an
// overhead above -max-overhead exits 1, so CI can gate on it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
)

type overheadResult struct {
	Rounds       int     `json:"rounds"`
	OpsPerSecOff float64 `json:"ops_per_sec_off"` // median of the off legs
	OpsPerSecOn  float64 `json:"ops_per_sec_on"`  // median of the on legs
	// OverheadFrac is 1 - median(on/off) over interleaved round pairs;
	// negative means the heartbeat-on leg measured faster (noise).
	OverheadFrac float64 `json:"overhead_frac"`
	MaxAllowed   float64 `json:"max_allowed"`
}

type downDetection struct {
	KilledNode     int     `json:"killed_node"`
	IntervalMS     float64 `json:"interval_ms"`
	DownAfter      uint64  `json:"down_after"`
	DeadlineMS     float64 `json:"deadline_ms"` // down_after x interval + RTT margin
	DetectedMS     float64 `json:"detected_ms"` // kill -> state:down on the survivor
	SeriesDropped  bool    `json:"series_dropped"`
	StateDegraded  bool    `json:"state_degraded"`
	SurvivorsUp    int     `json:"survivors_up"`
	HealthLineDown string  `json:"health_line_down"`
}

type healthReport struct {
	kvproc.Header
	Overhead  overheadResult `json:"overhead"`
	Detection downDetection  `json:"detection"`
}

func main() {
	var (
		kvserve  = flag.String("kvserve", "", "path to a built kvserve binary (required)")
		kvbench  = flag.String("kvbench", "", "path to a built kvbench binary (required)")
		out      = flag.String("json", "results/BENCH_health.json", "artifact path")
		hbMS     = flag.Int("hb-ms", 250, "heartbeat interval (ms)")
		ops      = flag.Int("ops", 20_000, "operations per overhead leg")
		conns    = flag.Int("conns", 4, "kvbench connections")
		depth    = flag.Int("depth", 16, "kvbench pipeline depth")
		keys     = flag.Int("keys", 10_000, "kvbench key-space size")
		rounds   = flag.Int("rounds", 5, "interleaved off/on overhead round pairs")
		maxOver  = flag.Float64("max-overhead", 0.02, "fail if heartbeat overhead exceeds this fraction")
		marginMS = flag.Int("margin-ms", 1500, "scheduling+RTT margin added to the detection deadline")
	)
	flag.Parse()
	if *kvserve == "" || *kvbench == "" {
		fmt.Fprintln(os.Stderr, "health: -kvserve and -kvbench are required")
		os.Exit(2)
	}
	cl := &fleet{Cluster: must(kvproc.StartCluster(*kvserve, 3,
		"-heartbeat-interval", fmt.Sprintf("%dms", *hbMS), "-shards", "2"))}
	defer cl.Stop()
	for _, a := range cl.Addrs {
		cl.nodes = append(cl.nodes, must(resp.Dial("tcp", a)))
	}

	// Phase 1: the fleet converges — a survivor's aggregated view shows
	// every node ok and answering report collection.
	waitHealthy(cl, 3, 20*time.Second)
	fmt.Printf("fleet healthy: 3 nodes ok on %s\n", cl.Addrs[0])

	report := healthReport{Header: kvproc.Header{
		Name: "health",
		Kind: "fleet-observability",
		Params: map[string]any{
			"nodes": 3, "hb_ms": *hbMS, "ops": *ops, "conns": *conns,
			"depth": *depth, "keys": *keys, "rounds": *rounds, "cpus": runtime.NumCPU(),
		},
	}}

	// Phase 2: interleaved overhead legs.
	report.Overhead = measureOverhead(cl, *kvbench, *ops, *conns, *depth, *keys, *rounds, *maxOver)
	fmt.Printf("heartbeat overhead: off %.0f ops/s, on %.0f ops/s, frac %+.4f (max %.2f)\n",
		report.Overhead.OpsPerSecOff, report.Overhead.OpsPerSecOn,
		report.Overhead.OverheadFrac, *maxOver)

	// Phase 3: kill node 2 and time the survivor's verdict.
	report.Detection = detectDown(cl, *hbMS, *marginMS)
	fmt.Printf("node %d killed: down in %.0fms (deadline %.0fms), series dropped %v, cluster degraded %v\n",
		report.Detection.KilledNode, report.Detection.DetectedMS, report.Detection.DeadlineMS,
		report.Detection.SeriesDropped, report.Detection.StateDegraded)

	if err := kvproc.WriteJSON(*out, &report); err != nil {
		kvproc.Fatal("health", err)
	}
	fmt.Printf("wrote %s\n", *out)

	fail := false
	if report.Detection.DetectedMS > report.Detection.DeadlineMS {
		fmt.Fprintf(os.Stderr, "health: down detection %.0fms exceeded deadline %.0fms\n",
			report.Detection.DetectedMS, report.Detection.DeadlineMS)
		fail = true
	}
	if !report.Detection.SeriesDropped || !report.Detection.StateDegraded {
		fmt.Fprintln(os.Stderr, "health: dead-node series or degraded state check failed")
		fail = true
	}
	if report.Overhead.OverheadFrac > *maxOver {
		fmt.Fprintf(os.Stderr, "health: heartbeat overhead %.4f exceeds %.4f\n",
			report.Overhead.OverheadFrac, *maxOver)
		fail = true
	}
	if fail {
		kvproc.Fatal("health", errors.New("gate failed")) // not os.Exit: the survivors must be stopped
	}
}

// fleet is the booted cluster plus one open connection per node.
type fleet struct {
	*kvproc.Cluster
	nodes []*resp.Client
}

// must unwraps (v, err); an error stops the children and exits.
func must[T any](v T, err error) T {
	if err != nil {
		kvproc.Fatal("health", err)
	}
	return v
}

// clusterHealth fetches and splits node 0's CLUSTER HEALTH lines.
func clusterHealth(cl *fleet) ([]string, error) {
	v, err := cl.nodes[0].Do("CLUSTER", "HEALTH")
	if err != nil {
		return nil, err
	}
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("CLUSTER HEALTH reply %T (%v)", v, v)
	}
	return strings.Split(strings.TrimRight(string(b), "\r\n"), "\r\n"), nil
}

// waitHealthy blocks until node 0's aggregated view shows n rows all
// state:ok up:1.
func waitHealthy(cl *fleet, n int, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		lines, err := clusterHealth(cl)
		if err == nil && len(lines) == n {
			ok := 0
			for _, ln := range lines {
				if strings.Contains(ln, "state:ok") && strings.Contains(ln, "up:1") {
					ok++
				}
			}
			if ok == n {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	kvproc.Fatal("health", fmt.Errorf("fleet did not converge to %d healthy nodes within %s", n, limit))
}

// benchLeg runs one kvbench -cluster leg and returns its ops/sec.
func benchLeg(kvbench, addr string, ops, conns, depth, keys int) float64 {
	sweep := must(kvproc.Bench(kvbench,
		"-addr", addr, "-cluster",
		"-sweep", fmt.Sprint(depth),
		"-ops", fmt.Sprint(ops), "-conns", fmt.Sprint(conns),
		"-keys", fmt.Sprint(keys),
	))
	if len(sweep) != 1 {
		kvproc.Fatal("health", fmt.Errorf("kvbench artifact has %d sweep points, want 1", len(sweep)))
	}
	return sweep[0].OpsPerSec
}

// setHeartbeats toggles the loops on every node.
func setHeartbeats(cl *fleet, on bool) {
	arg := "OFF"
	if on {
		arg = "ON"
	}
	for i, c := range cl.nodes {
		if v, err := c.Do("CLUSTER", "HEARTBEAT", arg); err != nil || v != "OK" {
			kvproc.Fatal("health", fmt.Errorf("CLUSTER HEARTBEAT %s on node %d: %v %v", arg, i, v, err))
		}
	}
}

// measureOverhead interleaves heartbeat-off and heartbeat-on kvbench
// legs. During the on legs a scraper loops over /cluster/metrics so
// the measured cost includes report collection fan-outs, not just the
// background beat.
func measureOverhead(cl *fleet, kvbench string, ops, conns, depth, keys, rounds int, maxOver float64) overheadResult {
	var offs, ons, ratios []float64
	for r := 0; r < rounds; r++ {
		setHeartbeats(cl, false)
		off := benchLeg(kvbench, cl.Addrs[0], ops, conns, depth, keys)

		setHeartbeats(cl, true)
		stop := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			c := &http.Client{Timeout: 5 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Get("http://" + cl.Metrics[0] + "/cluster/metrics")
				if err == nil {
					io.Copy(io.Discard, res.Body)
					res.Body.Close()
				}
				time.Sleep(100 * time.Millisecond)
			}
		}()
		on := benchLeg(kvbench, cl.Addrs[0], ops, conns, depth, keys)
		close(stop)
		<-scraped

		offs, ons = append(offs, off), append(ons, on)
		ratios = append(ratios, on/off)
		fmt.Printf("round %d: off %.0f ops/s, on %.0f ops/s (ratio %.4f)\n", r+1, off, on, on/off)
	}
	setHeartbeats(cl, true)
	return overheadResult{
		Rounds:       rounds,
		OpsPerSecOff: median(offs),
		OpsPerSecOn:  median(ons),
		OverheadFrac: 1 - median(ratios),
		MaxAllowed:   maxOver,
	}
}

// detectDown SIGKILLs node 2 and times the survivor's state:down
// verdict, then verifies the metric-series drop.
func detectDown(cl *fleet, hbMS, marginMS int) downDetection {
	const victim = 2
	det := downDetection{KilledNode: victim, IntervalMS: float64(hbMS)}

	// down_after from the survivor's own config (CLUSTER HEARTBEAT
	// STATUS), so the deadline tracks the server defaults.
	det.DownAfter = must(must(kvproc.Info(cl.nodes[0], "CLUSTER", "HEARTBEAT", "STATUS")).Uint("heartbeat_down_after"))
	det.DeadlineMS = float64(det.DownAfter)*float64(hbMS) + float64(marginMS)

	killed := time.Now()
	cl.Procs[victim].Kill()

	for {
		lines, err := clusterHealth(cl)
		if err == nil {
			for _, ln := range lines {
				if strings.HasPrefix(ln, fmt.Sprintf("node:%d ", victim)) && strings.Contains(ln, "state:down") {
					det.HealthLineDown = ln
				}
			}
		}
		if det.HealthLineDown != "" {
			det.DetectedMS = float64(time.Since(killed)) / 1e6
			break
		}
		if time.Since(killed) > 30*time.Second {
			kvproc.Fatal("health", fmt.Errorf("node %d never went down on the survivor's view", victim))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The dead node's report series must be gone; liveness series says
	// down; survivors still serve theirs.
	body := httpGet("http://" + cl.Metrics[0] + "/cluster/metrics")
	det.SeriesDropped = !strings.Contains(body, fmt.Sprintf("addrkv_fleet_ops{node=\"%d\"}", victim)) &&
		strings.Contains(body, fmt.Sprintf("addrkv_fleet_up{node=\"%d\"} 0", victim)) &&
		strings.Contains(body, `addrkv_fleet_ops{node="1"}`)
	for _, ln := range strings.Split(body, "\n") {
		if strings.HasPrefix(ln, `addrkv_fleet_up{node="`) && strings.HasSuffix(ln, " 1") {
			det.SurvivorsUp++
		}
	}

	det.StateDegraded = must(kvproc.Info(cl.nodes[0], "CLUSTER", "INFO"))["cluster_state"] == "degraded"
	return det
}

func httpGet(url string) string {
	c := &http.Client{Timeout: 10 * time.Second}
	res, err := c.Get(url)
	if err != nil {
		kvproc.Fatal("health", err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		kvproc.Fatal("health", err)
	}
	return string(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

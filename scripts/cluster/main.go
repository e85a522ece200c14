// Command cluster orchestrates multi-node kvserve clusters on
// loopback and merges three experiments into one BENCH_cluster.json:
//
//  1. a throughput/latency sweep over nodes × conns × pipeline depth,
//     driven by kvbench -cluster (slot-routed, redirect-following);
//  2. a live slot migration under concurrent read/write traffic, with
//     a zero-lost / zero-stale / zero-duplicated key audit — every
//     acked write must be readable at the new owner byte-for-byte,
//     and the old owner must answer MOVED for every migrated key;
//  3. the STLT warm-up cliff: the same migration with -cluster-rewarm
//     on vs off, sampling the destination's windowed fast-path hit
//     rate after the ownership flip. With rewarm on the destination's
//     STLT is warmed while records install (the paper's insertSTLT
//     applied at migration time), so the first window already hits;
//     with it off the first window pays the cliff and later windows
//     recover as demand GETs refill the table.
//
// Usage (from the repo root):
//
//	go build -o /tmp/kvserve ./cmd/kvserve
//	go build -o /tmp/kvbench ./cmd/kvbench
//	go run ./scripts/cluster -kvserve /tmp/kvserve -kvbench /tmp/kvbench \
//	    -json results/BENCH_cluster.json
//
// The audit failing (any lost, stale, or duplicated key) exits 1, so
// CI can gate on it directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"addrkv/internal/cluster"
	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
)

// sweepResult is one cell of the nodes × conns matrix.
type sweepResult struct {
	Nodes int                  `json:"nodes"`
	Conns int                  `json:"conns"`
	Sweep []kvproc.DepthResult `json:"sweep"`
}

// migrationAudit records the under-load migration and its key audit.
type migrationAudit struct {
	Slot         int    `json:"slot"`
	Keys         int    `json:"keys"`
	AckedWrites  uint64 `json:"acked_writes"`
	MigrationUS  uint64 `json:"migration_us"`
	MigratedKeys uint64 `json:"migrated_keys"`
	Lost         int    `json:"lost"`
	Stale        int    `json:"stale"`
	Duplicated   int    `json:"duplicated"`
	MovedSeen    uint64 `json:"moved_seen"`
	AskSeen      uint64 `json:"ask_seen"`
	TryAgainSeen uint64 `json:"tryagain_seen"`
}

// rewarmWindow is one post-migration sampling window at the
// destination: GETs issued and the fast-path hits they scored.
type rewarmWindow struct {
	Window   int     `json:"window"`
	Gets     uint64  `json:"gets"`
	FastHits uint64  `json:"fast_hits"`
	HitRate  float64 `json:"hit_rate"`
}

type rewarmResult struct {
	Rewarm      bool           `json:"rewarm"`
	Rewarmed    uint64         `json:"stlt_rows_rewarmed"`
	MigrationUS uint64         `json:"migration_us"`
	Timeline    []rewarmWindow `json:"timeline"`
}

type clusterReport struct {
	kvproc.Header
	Sweeps    []sweepResult  `json:"sweeps"`
	Migration migrationAudit `json:"migration"`
	Rewarm    []rewarmResult `json:"rewarm"`
}

func main() {
	var (
		kvserve  = flag.String("kvserve", "", "path to a built kvserve binary (required)")
		kvbench  = flag.String("kvbench", "", "path to a built kvbench binary (required)")
		out      = flag.String("json", "results/BENCH_cluster.json", "merged artifact path")
		ops      = flag.Int("ops", 40_000, "operations per sweep depth point")
		keys     = flag.Int("keys", 10_000, "key-space size for the sweep workload")
		vsize    = flag.Int("vsize", 64, "value size")
		depths   = flag.String("depths", "1,8,32", "pipeline depths swept per cell")
		nodesArg = flag.String("nodes", "1,3", "cluster sizes swept")
		connsArg = flag.String("conns", "2,8", "connection counts swept")
		migKeys  = flag.Int("mig-keys", 200, "keys in the migrated slot")
		windows  = flag.Int("windows", 6, "post-migration hit-rate sampling windows")
		winGets  = flag.Int("window-gets", 400, "GETs per sampling window")
	)
	flag.Parse()
	if *kvserve == "" || *kvbench == "" {
		fmt.Fprintln(os.Stderr, "cluster: -kvserve and -kvbench are required")
		os.Exit(2)
	}
	report := clusterReport{Header: kvproc.Header{
		Name: "cluster",
		Kind: "kvbench-cluster-matrix",
		Params: map[string]any{
			"ops": *ops, "keys": *keys, "vsize": *vsize, "depths": *depths,
			"mig_keys": *migKeys, "windows": *windows, "window_gets": *winGets,
			"cpus": runtime.NumCPU(),
		},
	}}

	for _, n := range parseInts(*nodesArg) {
		cl := startCluster(*kvserve, n, true)
		for _, conns := range parseInts(*connsArg) {
			fmt.Printf("== sweep: %d node(s), %d conn(s), depths %s ==\n", n, conns, *depths)
			sweep, err := kvproc.Bench(*kvbench,
				"-addr", cl.Addrs[0], "-cluster",
				"-sweep", *depths,
				"-ops", fmt.Sprint(*ops), "-conns", fmt.Sprint(conns),
				"-keys", fmt.Sprint(*keys), "-vsize", fmt.Sprint(*vsize),
			)
			if err != nil {
				kvproc.Fatal("cluster", fmt.Errorf("nodes=%d conns=%d: %w", n, conns, err))
			}
			report.Sweeps = append(report.Sweeps, sweepResult{Nodes: n, Conns: conns, Sweep: sweep})
		}
		cl.Stop()
	}

	report.Migration = migrationUnderLoad(*kvserve, *migKeys)
	for _, rewarm := range []bool{true, false} {
		report.Rewarm = append(report.Rewarm, rewarmCliff(*kvserve, rewarm, *migKeys, *windows, *winGets))
	}

	if err := kvproc.WriteJSON(*out, &report); err != nil {
		kvproc.Fatal("cluster", err)
	}
	m := report.Migration
	fmt.Printf("migration audit: %d keys, %d acked writes, %d lost, %d stale, %d duplicated (%d moved, %d ask seen)\n",
		m.Keys, m.AckedWrites, m.Lost, m.Stale, m.Duplicated, m.MovedSeen, m.AskSeen)
	for _, r := range report.Rewarm {
		first, last := r.Timeline[0], r.Timeline[len(r.Timeline)-1]
		fmt.Printf("rewarm=%v: %d rows warmed at install, window-1 hit rate %.3f, window-%d %.3f\n",
			r.Rewarm, r.Rewarmed, first.HitRate, last.Window, last.HitRate)
	}
	fmt.Printf("wrote %s\n", *out)
	if m.Lost+m.Stale+m.Duplicated > 0 {
		fmt.Fprintln(os.Stderr, "cluster: migration audit failed")
		os.Exit(1)
	}
}

// startCluster starts an n-node cluster of 2-shard nodes.
func startCluster(kvserve string, n int, rewarm bool) *kvproc.Cluster {
	return must(kvproc.StartCluster(kvserve, n, fmt.Sprintf("-cluster-rewarm=%v", rewarm), "-shards", "2"))
}

// must unwraps (v, err); an error stops the children and exits.
func must[T any](v T, err error) T {
	if err != nil {
		kvproc.Fatal("cluster", err)
	}
	return v
}

// rclient is a minimal redirect-following cluster client: one
// persistent connection per node, commands issued one at a time.
type rclient struct {
	conns                map[string]*resp.Client
	moved, ask, tryagain uint64
}

func newClient() *rclient { return &rclient{conns: map[string]*resp.Client{}} }

func (rc *rclient) close() {
	for _, c := range rc.conns {
		c.Close()
	}
}

// node returns the connection to addr, dialing it on first use.
func (rc *rclient) node(addr string) (*resp.Client, error) {
	if c, ok := rc.conns[addr]; ok {
		return c, nil
	}
	c, err := resp.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	rc.conns[addr] = c
	return c, nil
}

// cmd runs one command against one node and returns the decoded reply.
func (rc *rclient) cmd(addr string, args ...string) (any, error) {
	c, err := rc.node(addr)
	if err != nil {
		return nil, err
	}
	return c.Do(args...)
}

// do runs one command starting at addr and follows MOVED/ASK/TRYAGAIN
// until it lands, like a real cluster client.
func (rc *rclient) do(addr string, args ...string) (any, error) {
	for attempt := 0; attempt < 32; attempt++ {
		v, err := rc.cmd(addr, args...)
		if err != nil {
			return nil, err
		}
		e, isErr := v.(error)
		if !isErr {
			return v, nil
		}
		f := strings.Fields(e.Error())
		switch {
		case len(f) == 3 && f[0] == "MOVED":
			rc.moved++
			addr = f[2]
		case len(f) == 3 && f[0] == "ASK":
			rc.ask++
			// ASKING arms the next command on that connection; the two
			// sequential roundtrips below stay on one conn.
			if _, err := rc.cmd(f[2], "ASKING"); err != nil {
				return nil, err
			}
			if v, err = rc.cmd(f[2], args...); err != nil {
				return nil, err
			}
			if _, stillErr := v.(error); !stillErr {
				return v, nil
			}
		case len(f) > 0 && f[0] == "TRYAGAIN":
			rc.tryagain++
			time.Sleep(time.Millisecond)
		default:
			return v, nil // a genuine error reply
		}
	}
	return nil, fmt.Errorf("redirects did not settle for %v", args)
}

// slotKeys generates count distinct keys hashing to slot.
func slotKeys(slot uint16, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		k := fmt.Sprintf("hot:%d", i)
		if cluster.SlotOf([]byte(k)) == slot {
			out = append(out, k)
		}
	}
	return out
}

// migrationUnderLoad boots a 2-node cluster, keeps a writer hammering
// one slot while that slot migrates, and audits every acked write.
func migrationUnderLoad(kvserve string, nkeys int) migrationAudit {
	const slot = 42 // owned by node 0 under the even split
	cl := startCluster(kvserve, 2, true)
	defer cl.Stop()
	keys := slotKeys(slot, nkeys)

	// Seed every key so the audit's "lost" check covers the full set.
	seedc := newClient()
	for i, k := range keys {
		if v, err := seedc.do(cl.Addrs[0], "SET", k, fmt.Sprintf("seed-%d", i)); err != nil || v != "OK" {
			kvproc.Fatal("cluster", fmt.Errorf("seed %s: %v %v", k, v, err))
		}
	}
	seedc.close()

	// Writer: rounds of SET over the slot's keys with round-stamped
	// values, each acked before the next; acked[] is therefore exactly
	// the last value the server confirmed for every key.
	acked := make(map[string]string, nkeys)
	for i, k := range keys {
		acked[k] = fmt.Sprintf("seed-%d", i)
	}
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes uint64
	wc := newClient()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			for i, k := range keys {
				select {
				case <-stop:
					return
				default:
				}
				val := fmt.Sprintf("r%d-%d", round, i)
				v, err := wc.do(cl.Addrs[0], "SET", k, val)
				if err != nil {
					kvproc.Fatal("cluster", fmt.Errorf("writer: %w", err))
				}
				if v == "OK" {
					mu.Lock()
					acked[k] = val
					writes++
					mu.Unlock()
				}
			}
		}
	}()

	time.Sleep(150 * time.Millisecond) // migrate mid-traffic
	migc := newClient()
	rep, err := migc.cmd(cl.Addrs[0], "CLUSTER", "MIGRATE", fmt.Sprint(slot), "1")
	if err != nil {
		kvproc.Fatal("cluster", fmt.Errorf("CLUSTER MIGRATE: %w", err))
	}
	if s, ok := rep.(string); !ok || !strings.HasPrefix(s, "OK slot=42") {
		kvproc.Fatal("cluster", fmt.Errorf("CLUSTER MIGRATE reply: %v", rep))
	}
	time.Sleep(150 * time.Millisecond) // keep writing against the new owner
	close(stop)
	wg.Wait()

	// Audit: every acked value must be served (by redirect) exactly as
	// written, and the old owner must redirect — a value served from
	// node 0 after commit would be a duplicate/stale copy.
	audit := migrationAudit{
		Slot: slot, Keys: nkeys, AckedWrites: writes,
		MovedSeen: wc.moved, AskSeen: wc.ask, TryAgainSeen: wc.tryagain,
	}
	ac := newClient()
	for _, k := range keys {
		v := must(ac.do(cl.Addrs[0], "GET", k))
		b, ok := v.([]byte)
		if !ok || b == nil {
			audit.Lost++
			continue
		}
		if string(b) != acked[k] {
			audit.Stale++
		}
		direct := must(ac.cmd(cl.Addrs[0], "GET", k))
		if _, isErr := direct.(error); !isErr {
			audit.Duplicated++
		}
	}
	info := fetchInfo(ac, cl.Addrs[0])
	audit.MigrationUS = must(info.Uint("cluster_last_migration_us"))
	audit.MigratedKeys = must(info.Uint("cluster_migrated_keys"))
	wc.close()
	migc.close()
	ac.close()
	return audit
}

// rewarmCliff migrates a warm slot and samples the destination's
// windowed fast-path hit rate, with STLT re-warm on or off.
func rewarmCliff(kvserve string, rewarm bool, nkeys, windows, winGets int) rewarmResult {
	const slot = 42
	cl := startCluster(kvserve, 2, rewarm)
	defer cl.Stop()
	keys := slotKeys(slot, nkeys)
	c := newClient()
	defer c.close()
	for i, k := range keys {
		if v, err := c.do(cl.Addrs[0], "SET", k, fmt.Sprintf("w-%d", i)); err != nil || v != "OK" {
			kvproc.Fatal("cluster", fmt.Errorf("seed %s: %v %v", k, v, err))
		}
	}
	// Warm the SOURCE fast path so the migration moves a hot slot.
	for _, k := range keys {
		must(c.do(cl.Addrs[0], "GET", k))
	}
	if _, err := c.cmd(cl.Addrs[0], "CLUSTER", "MIGRATE", fmt.Sprint(slot), "1"); err != nil {
		kvproc.Fatal("cluster", fmt.Errorf("CLUSTER MIGRATE: %w", err))
	}

	res := rewarmResult{Rewarm: rewarm}
	info := fetchInfo(c, cl.Addrs[1])
	res.Rewarmed = must(info.Uint("cluster_import_rewarmed"))
	res.MigrationUS = must(fetchInfo(c, cl.Addrs[0]).Uint("cluster_last_migration_us"))
	// Timeline: windows of GETs against the new owner; the per-window
	// hit-rate delta exposes (or rules out) the warm-up cliff.
	prevGets := must(info.Uint("cluster_gets_total"))
	prevHits := must(info.Uint("cluster_fast_hits_total"))
	for w := 0; w < windows; w++ {
		for g := 0; g < winGets; g++ {
			k := keys[g%len(keys)]
			must(c.do(cl.Addrs[1], "GET", k))
		}
		info := fetchInfo(c, cl.Addrs[1])
		gets := must(info.Uint("cluster_gets_total"))
		hits := must(info.Uint("cluster_fast_hits_total"))
		win := rewarmWindow{Window: w + 1, Gets: gets - prevGets, FastHits: hits - prevHits}
		if win.Gets > 0 {
			win.HitRate = float64(win.FastHits) / float64(win.Gets)
		}
		res.Timeline = append(res.Timeline, win)
		prevGets, prevHits = gets, hits
	}
	return res
}

// fetchInfo pulls and parses one node's INFO.
func fetchInfo(rc *rclient, addr string) kvproc.Fields {
	return must(kvproc.Info(must(rc.node(addr)), "INFO"))
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			kvproc.Fatal("cluster", fmt.Errorf("bad list entry %q", part))
		}
		out = append(out, n)
	}
	return out
}

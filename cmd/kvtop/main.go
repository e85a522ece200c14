// Command kvtop is a terminal fleet monitor for cluster-mode kvserve.
// It polls one node over RESP for the fleet view that node collects
// over the bus and renders a per-node table: liveness state, heartbeat
// age, slot counts, key counts, op rates, fast-path hit rate, queue
// depth, and latency quantiles, plus the migration progress block once
// a migration has run on the node.
//
//	kvtop -addr 127.0.0.1:6380            # live, refreshes every second
//	kvtop -addr 127.0.0.1:6380 -once      # one frame, no screen clear
//	kvtop -addr 127.0.0.1:6380 -interval 250ms
//
// The -addr flag takes the node's client address. Each frame reads four
// replies, all rendered from kvserve's series table: CLUSTER HEALTH,
// CLUSTER INFO, CLUSTER HEARTBEAT STATUS and CLUSTER MIGRATE STATUS.
// Any node works — each aggregates the whole fleet — but a partition is
// easiest to see by watching a survivor.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
)

// frame is one poll's replies, parsed into key:value fields.
type frame struct {
	nodes []kvproc.Fields // CLUSTER HEALTH, one per node in index order
	info  kvproc.Fields   // CLUSTER INFO
	hb    kvproc.Fields   // CLUSTER HEARTBEAT STATUS
	mig   kvproc.Fields   // CLUSTER MIGRATE STATUS; nil before any migration
}

// parseHealth splits a CLUSTER HEALTH reply: one line per node, fields
// separated by spaces.
func parseHealth(txt string) []kvproc.Fields {
	var nodes []kvproc.Fields
	for _, line := range strings.Split(strings.TrimRight(txt, "\r\n"), "\r\n") {
		row := kvproc.Fields{}
		for _, f := range strings.Fields(line) {
			k, v, _ := strings.Cut(f, ":")
			row[k] = v
		}
		nodes = append(nodes, row)
	}
	return nodes
}

// pollTimeout bounds one frame's dial and four round trips, so a wedged
// node shows as an error frame instead of freezing the monitor.
const pollTimeout = 10 * time.Second

// fetch reads one frame from the node at addr.
func fetch(addr string) (*frame, error) {
	conn, err := net.DialTimeout("tcp", addr, pollTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(pollTimeout)); err != nil {
		return nil, err
	}
	c := &resp.Client{R: resp.NewReader(conn), W: resp.NewWriter(conn)}
	v, err := c.Do("CLUSTER", "HEALTH")
	if err != nil {
		return nil, err
	}
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("CLUSTER HEALTH: reply %T (%v), want a bulk string", v, v)
	}
	f := &frame{nodes: parseHealth(string(b))}
	if f.info, err = kvproc.Info(c, "CLUSTER", "INFO"); err != nil {
		return nil, err
	}
	if f.hb, err = kvproc.Info(c, "CLUSTER", "HEARTBEAT", "STATUS"); err != nil {
		return nil, err
	}
	// An error reply here means no migration has run on the node.
	if v, err = c.Do("CLUSTER", "MIGRATE", "STATUS"); err != nil {
		return nil, err
	}
	if b, ok := v.([]byte); ok {
		f.mig = kvproc.ParseInfo(b)
	}
	return f, nil
}

// render writes one frame: a fleet header, the per-node table, and the
// migration progress line when one has run. It returns the keys the
// replies lacked and names them under the frame, so a series row
// renamed in kvserve shows up instead of rendering as an empty column.
func render(w io.Writer, f *frame) (missing []string) {
	get := func(r kvproc.Fields, key string) string {
		v, ok := r[key]
		if !ok {
			missing = append(missing, key)
		}
		return v
	}
	num := func(r kvproc.Fields, key string) float64 {
		x, _ := strconv.ParseFloat(get(r, key), 64)
		return x
	}
	ms := func(r kvproc.Fields, key string, unit time.Duration) time.Duration {
		return time.Duration(num(r, key) * float64(unit)).Round(time.Millisecond)
	}

	hb := "off"
	if get(f.hb, "heartbeat_enabled") == "1" {
		hb = get(f.hb, "heartbeat_interval_ms") + "ms x" + get(f.hb, "heartbeat_down_after")
	}
	fmt.Fprintf(w, "kvserve-cluster  state=%s  map=v%s  heartbeat=%s  source=node%s\n\n",
		get(f.info, "cluster_state"), get(f.info, "cluster_map_version"), hb, get(f.info, "cluster_node_index"))

	fmt.Fprintf(w, "%-4s %-16s %-7s %-3s %8s %7s %6s %5s %9s %9s %6s %6s %9s %9s\n",
		"NODE", "ADDR", "STATE", "UP", "AGE", "BEATS", "SLOTS", "MIG", "KEYS", "OPS/S", "HIT%", "QDEPTH", "P50us", "P99us")
	for _, n := range f.nodes {
		up := "no"
		if get(n, "up") == "1" {
			up = "yes"
		}
		fmt.Fprintf(w, "%-4s %-16s %-7s %-3s %8s %7s ",
			get(n, "node"), get(n, "addr"), get(n, "state"), up, ms(n, "age_ms", time.Millisecond), get(n, "beats"))
		if up == "no" {
			// No report: placeholders, never stale numbers.
			fmt.Fprintf(w, "%6s %5s %9s %9s %6s %6s %9s %9s\n", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%6s %5s %9s %9.0f %6.1f %6s %9s %9s\n",
			get(n, "slots_owned"), get(n, "slots_migrating")+"/"+get(n, "slots_importing"), get(n, "keys"),
			num(n, "ops_per_sec"), 100*num(n, "hit_rate"), get(n, "queue_depth"),
			get(n, "lat_p50_us"), get(n, "lat_p99_us"))
	}

	if m := f.mig; m != nil {
		status := "done"
		if get(m, "migration_active") == "1" {
			status = "active"
		}
		if get(m, "migration_failed") == "1" {
			status = "FAILED"
		}
		pct := 100.0
		if total := num(m, "migration_keys_total"); total > 0 {
			pct = 100 * num(m, "migration_keys_shipped") / total
		}
		fmt.Fprintf(w, "\nmigration slot %s -> node %s: %s  %s/%s keys (%.0f%%)  %s/%s batches  %s bytes  elapsed %v  eta %v\n",
			get(m, "migration_slot"), get(m, "migration_dest"), status,
			get(m, "migration_keys_shipped"), get(m, "migration_keys_total"), pct,
			get(m, "migration_batches_shipped"), get(m, "migration_batches_total"), get(m, "migration_bytes"),
			ms(m, "migration_elapsed_us", time.Microsecond), ms(m, "migration_eta_us", time.Microsecond))
	}
	if len(missing) > 0 {
		fmt.Fprintf(w, "\nkvtop: fields absent from the server's replies: %s\n", strings.Join(missing, " "))
	}
	return missing
}

func main() {
	var (
		addr     = flag.String("addr", "", "a cluster node's client address, e.g. 127.0.0.1:6380")
		interval = flag.Duration("interval", time.Second, "poll period")
		once     = flag.Bool("once", false, "render one frame and exit")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "kvtop: -addr is required")
		os.Exit(2)
	}

	if *once {
		f, err := fetch(*addr)
		if err != nil {
			log.Fatalf("kvtop: %v", err)
		}
		render(os.Stdout, f)
		return
	}
	for {
		f, err := fetch(*addr)
		fmt.Print("\x1b[2J\x1b[H") // clear + home, one frame per screen
		if err != nil {
			fmt.Printf("kvtop: %v (retrying every %v)\n", err, *interval)
		} else {
			render(os.Stdout, f)
		}
		time.Sleep(*interval)
	}
}

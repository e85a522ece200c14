package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"addrkv"
	"addrkv/internal/cluster"
	"addrkv/internal/health"
	"addrkv/internal/kv"
	"addrkv/internal/shard"
)

// heartbeats turns on the live heartbeats the health tests use: a fast
// interval so down-detection deadlines land in fractions of a second,
// with the suspect/down multiples widened (8 and 16, vs the production
// 2 and 4) so -race scheduler stalls during the heavy differential legs
// cannot fake a missed-deadline verdict.
func heartbeats(c *config) {
	c.hbEvery, c.hbSuspect, c.hbDown = 25*time.Millisecond, 8, 16
}

// runDiffOps replays ops against one server on the matching dispatch
// path (direct dispatch for mutex, bounded pipelined bursts for
// worker) and returns the decoded replies.
func runDiffOps(t *testing.T, s *server, ops [][]string, workers bool) []any {
	t.Helper()
	out := make([]any, 0, len(ops))
	if !workers {
		cs := &connState{id: 1}
		for _, op := range ops {
			out = append(out, callCS(t, s, cs, op...))
		}
		return out
	}
	r, w, _ := pipeClient(t, s)
	for start := 0; start < len(ops); start += 25 {
		end := min(start+25, len(ops))
		for _, op := range ops[start:end] {
			ba := make([][]byte, len(op))
			for i, a := range op {
				ba[i] = []byte(a)
			}
			w.WriteCommand(ba...)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := start; i < end; i++ {
			v, err := r.ReadReply()
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			out = append(out, v)
		}
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterHeartbeatDifferential is the tentpole guarantee: a
// heartbeat-on cluster must produce bit-for-bit the same replies AND
// the same modeled statistics report as a heartbeat-off cluster, on
// both dispatch paths and at both fleet sizes — heartbeats, digest
// builds, and CLUSTER HEALTH fan-outs ride read-only surfaces and may
// never perturb the engine model.
func TestClusterHeartbeatDifferential(t *testing.T) {
	for _, workers := range []bool{false, true} {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers=%v/nodes=%d", workers, n), func(t *testing.T) {
				off := newTestCluster(t, n, workers)
				on := newTestClusterOpts(t, n, workers, heartbeats)

				ops := diffOps(t)
				ro := runDiffOps(t, off[0], ops, workers)
				rn := runDiffOps(t, on[0], ops, workers)
				for i := range ro {
					if !reflect.DeepEqual(ro[i], rn[i]) {
						t.Fatalf("%v: heartbeat-off %v != heartbeat-on %v", ops[i], ro[i], rn[i])
					}
				}

				if n > 1 {
					// Make sure the observability plane actually ran before
					// comparing: every node must have completed at least one
					// heartbeat exchange, and a digest fan-out must have
					// served on every node.
					for i, s := range on {
						waitFor(t, 5*time.Second, fmt.Sprintf("node %d heartbeats", i), func() bool {
							return s.clus.hbSent.Load() >= uint64(n-1)
						})
					}
					txt := string(callCS(t, on[0], &connState{id: 9}, "CLUSTER", "HEALTH").([]byte))
					if strings.Count(txt, "up:1") != n {
						t.Fatalf("CLUSTER HEALTH did not reach all %d nodes:\n%s", n, txt)
					}
				}

				for i := range on {
					if !reflect.DeepEqual(off[i].sys.Report(), on[i].sys.Report()) {
						t.Fatalf("node %d modeled stats diverged:\noff: %+v\non:  %+v",
							i, off[i].sys.Report(), on[i].sys.Report())
					}
				}
			})
		}
	}
}

// TestHeartbeatCarriesLivenessOnly: a heartbeat's body is the
// sender's node index, exactly 8 bytes, and its ack is empty. Any other
// body is refused and counts as no beat — a short body must not read
// as node 0. The node runs no heartbeat loops of its own
// (-heartbeat-interval 0), and CLUSTER HEARTBEAT STATUS says so.
func TestHeartbeatCarriesLivenessOnly(t *testing.T) {
	s := newTestCluster(t, 2, false)[0]
	if st := string(callCS(t, s, &connState{id: 1}, "CLUSTER", "HEARTBEAT", "STATUS").([]byte)); !strings.Contains(st, "heartbeat_enabled:0\r\n") {
		t.Fatalf("HEARTBEAT STATUS with interval 0 = %s", st)
	}
	beats := func() uint64 { return s.clus.health.Snapshot()[1].Beats }
	beat := func(body []byte) (cluster.MsgType, []byte) {
		return s.busHandler(cluster.Msg{Type: cluster.MsgHeartbeat, Payload: body})
	}

	before := beats()
	if typ, body := beat(cluster.EncodeU64(1)); typ != cluster.MsgAck || len(body) != 0 {
		t.Fatalf("heartbeat from node 1 = %v %q, want an empty ack", typ, body)
	}
	if got := beats(); got != before+1 {
		t.Fatalf("node 1 beats = %d after an acked heartbeat, want %d", got, before+1)
	}
	for name, body := range map[string][]byte{
		"7 bytes":      cluster.EncodeU64(1)[:7],
		"9 bytes":      append(cluster.EncodeU64(1), 0),
		"out of range": cluster.EncodeU64(2),
	} {
		if typ, _ := beat(body); typ != cluster.MsgErr {
			t.Fatalf("%s: heartbeat answered %v, want MsgErr", name, typ)
		}
		if got := beats(); got != before+1 {
			t.Fatalf("%s: node 1 beats moved to %d", name, got)
		}
	}
}

// TestHeartbeatCountedWork holds what fleet observability puts on the
// bus, counted on a link instead of timed: each acked beat is one
// heartbeat frame out and one empty ack back, and one CLUSTER HEALTH
// scrape is one report request out and one report back per live peer.
// A wall-clock A/B of the same cost spread wider between runs of one
// binary than its whole 10 % budget.
func TestHeartbeatCountedWork(t *testing.T) {
	const beats = 40
	srvs := newTestClusterOpts(t, 3, false, heartbeats)
	s0 := srvs[0]
	cl := s0.clus
	cl.stopHeartbeats()
	var link linkCount
	for i, p := range cl.hbPeers {
		if p != nil {
			hp := cluster.NewPeer(proxyLink(t, srvs[i].cfg.nodes[i].Bus, 0, &link))
			hp.Timeout = p.Timeout
			p.Close()
			cl.hbPeers[i] = hp
		}
	}

	sent, fails := cl.hbSent.Load(), cl.hbFails.Load()
	s0.startHeartbeats()
	waitFor(t, 10*time.Second, fmt.Sprintf("%d beats", beats), func() bool {
		return cl.hbSent.Load()-sent >= beats
	})
	cl.stopHeartbeats() // waits out the beat in flight
	if n := cl.hbFails.Load() - fails; n != 0 {
		t.Fatalf("%d heartbeat calls failed", n)
	}
	n := int64(cl.hbSent.Load() - sent)
	beat := int64(len(cluster.AppendFrame(nil, cluster.MsgHeartbeat, cluster.EncodeU64(uint64(cl.node.Self())))))
	ack := int64(len(cluster.AppendFrame(nil, cluster.MsgAck, nil)))
	if out, in := link.out.Load(), link.in.Load(); out != n*beat || in != n*ack {
		t.Fatalf("%d beats carried %d bytes out and %d back, want %d x %d and %d x %d", n, out, in, n, beat, n, ack)
	}

	out0, in0 := link.out.Load(), link.in.Load()
	rows := healthRows(t, s0, &connState{id: 1})
	req := int64(len(cluster.AppendFrame(nil, cluster.MsgDigestGet, nil)))
	var wantOut, wantIn int64
	for i, s := range srvs[1:] {
		if rows[i+1]["up"] != "1" {
			t.Fatalf("node %d did not answer the scrape: %v", i+1, rows[i+1])
		}
		// A quiet node rebuilds the report it sent byte for byte.
		wantOut += req
		wantIn += int64(len(cluster.AppendFrame(nil, cluster.MsgDigest, s.clusterReport())))
	}
	if out, in := link.out.Load()-out0, link.in.Load()-in0; out != wantOut || in != wantIn {
		t.Fatalf("a scrape carried %d bytes out and %d back, want %d and %d", out, in, wantOut, wantIn)
	}
}

// healthRows reads s's CLUSTER HEALTH, one key -> value map per line.
func healthRows(t *testing.T, s *server, cs *connState) []map[string]string {
	t.Helper()
	var rows []map[string]string
	txt := string(callCS(t, s, cs, "CLUSTER", "HEALTH").([]byte))
	for _, ln := range strings.Split(strings.TrimRight(txt, "\r\n"), "\r\n") {
		row := map[string]string{}
		for _, f := range strings.Fields(ln) {
			k, v, _ := strings.Cut(f, ":")
			row[k] = v
		}
		rows = append(rows, row)
	}
	return rows
}

// ownedKeys returns count keys whose slots node self owns.
func ownedKeys(s *server, self, count int) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("own%d:%d", self, i)
		if s.clus.node.Map().Owner(cluster.SlotOf([]byte(k))) == self {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestClusterHealthSurfaces covers the command plane: CLUSTER HEALTH
// line format, CLUSTER HEARTBEAT STATUS, and the heartbeat and
// liveness fields added to CLUSTER INFO. Each node then serves its own
// traffic, and once the fleet is quiet node 0's CLUSTER HEALTH line and
// /cluster/metrics series for every node carry what that node's own
// INFO and DBSIZE say: each report crossed the bus intact.
func TestClusterHealthSurfaces(t *testing.T) {
	srvs := newTestClusterOpts(t, 3, false, func(c *config) {
		heartbeats(c)
		c.engine.MaxMemory = 1 << 20 // so used_bytes is tracked
	})
	s0 := srvs[0]
	cs := &connState{id: 1}
	waitFor(t, 5*time.Second, "first heartbeat round", func() bool {
		return s0.clus.hbSent.Load() >= 2
	})

	rows := healthRows(t, s0, cs)
	if len(rows) != 3 {
		t.Fatalf("CLUSTER HEALTH rendered %d lines, want 3: %v", len(rows), rows)
	}
	for i, row := range rows {
		if row["node"] != strconv.Itoa(i) || row["state"] != "ok" || row["up"] != "1" || row["slots_owned"] == "" || row["ops_per_sec"] == "" {
			t.Fatalf("health line %d = %v, want node:%d state:ok up:1 with slots_owned and ops_per_sec", i, row, i)
		}
	}

	for j, s := range srvs {
		keys := ownedKeys(s, j, 8*(j+1))
		for i, k := range keys {
			if got := callCS(t, s, cs, "SET", k, strings.Repeat("v", 10*(j+1)+i)); got != "OK" {
				t.Fatalf("node %d SET %s = %v", j, k, got)
			}
		}
		for round := 0; round < j+2; round++ { // a key's first GET warms its STLT row
			for _, k := range keys[:4*(j+1)] {
				callCS(t, s, cs, "GET", k)
			}
		}
		callCS(t, s, cs, "GET", ownedKeys(s, j, 200)[199]) // a key never set
	}
	time.Sleep(2 * s0.cfg.hbEvery) // past every node's report cache
	rows = healthRows(t, s0, cs)
	fleet := samples(t, fleetScrape(s0))
	for j, s := range srvs {
		info := map[string]string{}
		for _, line := range strings.Split(string(callCS(t, s, cs, "INFO").([]byte)), "\r\n") {
			if k, v, ok := strings.Cut(line, ":"); ok {
				info[k] = v
			}
		}
		for key, want := range map[string]string{
			"map_version": info["cluster_map_version"],
			"slots_owned": info["cluster_slots_owned"],
			"ops":         info["ops"],
			"keys":        fmt.Sprint(callCS(t, s, cs, "DBSIZE")),
			"used_bytes":  info["used_bytes"],
			"hit_rate":    info["fast_path_hit_rate"],
		} {
			if rows[j][key] != want {
				t.Errorf("node 0 reports node %d %s:%s, node %d itself %q", j, key, rows[j][key], j, want)
			}
		}
		if rows[j]["used_bytes"] == "0" || rows[j]["hit_rate"] == "0.0000" {
			t.Errorf("node %d served no traffic: %v", j, rows[j])
		}
		for i := 0; i < s.sys.Cluster().NumShards(); i++ {
			want, _ := strconv.ParseFloat(info[fmt.Sprintf("shard%d_fast_hit_rate", i)], 64) // absent: no GETs, 0
			got, ok := fleet[fmt.Sprintf("addrkv_fleet_shard_hit_rate{node=\"%d\",shard=\"%d\"}", j, i)]
			if !ok || math.Abs(got-want) > 5e-5 {
				t.Errorf("node 0 exports node %d shard %d hit rate %g (present %v), node %d itself %g", j, i, got, ok, j, want)
			}
		}
	}

	st := string(callCS(t, s0, cs, "CLUSTER", "HEARTBEAT", "STATUS").([]byte))
	for _, want := range []string{"heartbeat_enabled:1", "heartbeat_interval_ms:25", "heartbeat_down_after:16"} {
		if !strings.Contains(st, want) {
			t.Fatalf("HEARTBEAT STATUS missing %q:\n%s", want, st)
		}
	}

	info := string(callCS(t, s0, cs, "CLUSTER", "INFO").([]byte))
	for _, want := range []string{
		"cluster_state:ok", "cluster_heartbeat_enabled:1", "cluster_heartbeat_interval_ms:25",
		"cluster_nodes_ok:3", "cluster_nodes_suspect:0", "cluster_nodes_down:0",
		"cluster_node_states:0=ok,1=ok,2=ok",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("CLUSTER INFO missing %q:\n%s", want, info)
		}
	}
}

// TestClusterDownDetection kills one node of a live-heartbeat fleet
// and pins the failure timeline on a survivor: the tracker flips the
// dead node to down on the missed-beat deadline, CLUSTER HEALTH shows
// state:down with up:0, CLUSTER INFO degrades, and the dead node's
// digest-derived series vanish from /cluster/metrics while its
// liveness series stay (up 0, state 2).
func TestClusterDownDetection(t *testing.T) {
	srvs := newTestClusterOpts(t, 3, false, heartbeats)
	s0 := srvs[0]
	cs := &connState{id: 1}
	waitFor(t, 5*time.Second, "heartbeats from all peers", func() bool {
		snap := s0.clus.health.Snapshot()
		return snap[1].Beats > 0 && snap[2].Beats > 0
	})

	// Before the kill the whole fleet is up and serving digests.
	rec := httptest.NewRecorder()
	s0.clusterMetricsHandler(rec, nil)
	if body := rec.Body.String(); !strings.Contains(body, `addrkv_fleet_ops{node="2"}`) {
		t.Fatalf("/cluster/metrics missing node 2 digest series before kill:\n%s", body)
	}

	killed := time.Now()
	srvs[2].close()
	waitFor(t, 10*time.Second, "node 2 declared down", func() bool {
		return s0.clus.health.State(2) == health.StateDown
	})
	// The deadline is hbDown missed intervals (16 x 25 ms here); the
	// 1.5 s margin absorbs -race scheduling stalls but still pins
	// detection to the deadline mechanism, not to some minutes-long
	// TCP timeout.
	bound := time.Duration(s0.cfg.hbDown)*s0.cfg.hbEvery + 1500*time.Millisecond
	if elapsed := time.Since(killed); elapsed > bound {
		t.Fatalf("down detection took %v, bound %v", elapsed, bound)
	}

	txt := string(callCS(t, s0, cs, "CLUSTER", "HEALTH").([]byte))
	var deadLine string
	for _, ln := range strings.Split(txt, "\r\n") {
		if strings.HasPrefix(ln, "node:2 ") {
			deadLine = ln
		}
	}
	for _, want := range []string{"state:down", "up:0"} {
		if !strings.Contains(deadLine, want) {
			t.Fatalf("dead node health line missing %q: %s", want, deadLine)
		}
	}
	if strings.Contains(deadLine, "slots_owned:") {
		t.Fatalf("dead node still reports digest fields: %s", deadLine)
	}

	info := string(callCS(t, s0, cs, "CLUSTER", "INFO").([]byte))
	for _, want := range []string{"cluster_state:degraded", "cluster_nodes_down:1"} {
		if !strings.Contains(info, want) {
			t.Fatalf("CLUSTER INFO missing %q after kill:\n%s", want, info)
		}
	}

	rec = httptest.NewRecorder()
	s0.clusterMetricsHandler(rec, nil)
	body := rec.Body.String()
	if !strings.Contains(body, `addrkv_fleet_up{node="2"} 0`) || !strings.Contains(body, `addrkv_fleet_state{node="2"} 2`) {
		t.Fatalf("liveness series wrong after kill:\n%s", body)
	}
	if strings.Contains(body, `addrkv_fleet_ops{node="2"}`) {
		t.Fatalf("dead node's digest series did not disappear:\n%s", body)
	}
	// Survivors still serve theirs.
	if !strings.Contains(body, `addrkv_fleet_ops{node="1"}`) {
		t.Fatalf("live node's digest series missing:\n%s", body)
	}
}

// TestClusterMigrateStatus: CLUSTER MIGRATE STATUS errors before any
// migration has run, then reports the completed migration's counters.
func TestClusterMigrateStatus(t *testing.T) {
	srvs := newTestCluster(t, 2, false)
	s0 := srvs[0]
	cs := &connState{id: 1}

	got := callCS(t, s0, cs, "CLUSTER", "MIGRATE", "STATUS")
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "no migration") {
		t.Fatalf("MIGRATE STATUS before any migration = %v, want error", got)
	}

	const slot = 42
	keys := keysInSlot(t, slot, 25)
	for i, k := range keys {
		if got := callCS(t, s0, cs, "SET", k, fmt.Sprintf("v-%d", i)); got != "OK" {
			t.Fatalf("SET %s = %v", k, got)
		}
	}
	if rep, ok := callCS(t, s0, cs, "CLUSTER", "MIGRATE", "42", "1").(string); !ok || !strings.HasPrefix(rep, "OK slot=42") {
		t.Fatalf("CLUSTER MIGRATE = %v", rep)
	}

	st := string(callCS(t, s0, cs, "CLUSTER", "MIGRATE", "STATUS").([]byte))
	for _, want := range []string{
		"migration_slot:42", "migration_dest:1", "migration_active:0", "migration_failed:0",
		"migration_keys_total:25", "migration_keys_shipped:25", "migration_keys_remaining:0",
	} {
		if !strings.Contains(st, want) {
			t.Fatalf("MIGRATE STATUS missing %q:\n%s", want, st)
		}
	}
}

// TestClusterHealthAfterMigrate: after a migration, the fleet view a
// node serves shows both nodes up, the destination holding the migrated
// keys, and the migration block; the JSON fleet snapshot endpoint that
// once carried the same values answers 404.
func TestClusterHealthAfterMigrate(t *testing.T) {
	srvs := newTestClusterOpts(t, 2, false, heartbeats)
	s0 := srvs[0]
	cs := &connState{id: 1}
	keys := keysInSlot(t, 7, 5)
	for _, k := range keys {
		callCS(t, s0, cs, "SET", k, "v")
	}
	if rep, ok := callCS(t, s0, cs, "CLUSTER", "MIGRATE", "7", "1").(string); !ok || !strings.HasPrefix(rep, "OK slot=7") {
		t.Fatalf("CLUSTER MIGRATE = %v", rep)
	}

	// Reports are cached for half a heartbeat interval, so the
	// destination's row may briefly predate the batch install; poll
	// until the migrated keys show up there.
	var rows []map[string]string
	waitFor(t, 5*time.Second, "destination report to include migrated keys", func() bool {
		rows = healthRows(t, s0, cs)
		if len(rows) != 2 {
			return false
		}
		keys, _ := strconv.Atoi(rows[1]["keys"])
		return keys >= 5
	})
	for i, row := range rows {
		if row["node"] != strconv.Itoa(i) || row["up"] != "1" {
			t.Fatalf("health row %d = %v, want node:%d up:1", i, row, i)
		}
	}

	st := string(callCS(t, s0, cs, "CLUSTER", "MIGRATE", "STATUS").([]byte))
	for _, want := range []string{"migration_slot:7\r\n", "migration_keys_shipped:5\r\n"} {
		if !strings.Contains(st, want) {
			t.Fatalf("MIGRATE STATUS missing %q:\n%s", want, st)
		}
	}

	srv, addr, err := startMetricsServer("127.0.0.1:0", s0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, code := range map[string]int{"/cluster/metrics": http.StatusOK, "/cluster/snapshot.json": http.StatusNotFound} {
		res, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != code {
			t.Fatalf("%s = %s, want %d", path, res.Status, code)
		}
	}
}

// TestClusterHealthUnparsableReport: a peer that answers a report which
// does not parse is shown like one that did not answer — up:0, no
// report fields on its CLUSTER HEALTH line, no report series.
func TestClusterHealthUnparsableReport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bus := cluster.ServeBus(ln, func(cluster.Msg) (cluster.MsgType, []byte) {
		return cluster.MsgDigest, []byte("map_version one\n")
	})
	defer bus.Close()
	cfg := clusterConfig(t, 2)
	cfg.nodes[1].Bus = ln.Addr().String()
	s := newConfigServer(t, cfg, false)

	rows := healthRows(t, s, &connState{id: 1})
	if rows[0]["up"] != "1" || rows[1]["up"] != "0" {
		t.Fatalf("up = %s and %s, want 1 and 0", rows[0]["up"], rows[1]["up"])
	}
	for _, r := range reportRows {
		if _, ok := rows[1][r.key]; ok {
			t.Errorf("node 1 shows report field %s: %v", r.key, rows[1])
		}
	}
	body := fleetScrape(s)
	if !strings.Contains(body, `addrkv_fleet_up{node="1"} 0`) || !strings.Contains(body, `addrkv_fleet_ops{node="0"}`) {
		t.Fatalf("liveness series wrong:\n%s", body)
	}
	if strings.Contains(body, `addrkv_fleet_ops{node="1"}`) || strings.Contains(body, `{node="1",shard=`) {
		t.Fatalf("node 1's report series are exported:\n%s", body)
	}
}

// TestReportRoundTrip: every report row reads back from the payload with
// the value the node's own view holds — integers exactly, floats to the
// bit — and one value per shard row per shard.
func TestReportRoundTrip(t *testing.T) {
	for _, workers := range []bool{false, true} {
		s := migratedCluster(t, workers)
		v := s.view()
		v.opsPerSec = 1.0 / 3 // a float no decimal rendering shortens
		rep, err := parseReport(encodeReport(v))
		if err != nil {
			t.Fatal(err)
		}
		if want := len(reportRows) + s.sys.Cluster().NumShards()*len(reportShardRows); len(rep) != want {
			t.Fatalf("workers=%v: %d values read back, want %d", workers, len(rep), want)
		}
		for n, got := range rep {
			r, i := rowAt(n)
			want := r.get(v, i)
			if fmt.Sprintf(r.verb, got) != fmt.Sprintf(r.verb, want) || math.Float64bits(sample(got)) != math.Float64bits(sample(want)) {
				t.Errorf("workers=%v: %s = %v, the view holds %v", workers, indexed(r.key, i), got, want)
			}
		}
	}
}

// TestReportDecodeRejects: a payload is taken whole or not at all.
func TestReportDecodeRejects(t *testing.T) {
	good := string(encodeReport(migratedCluster(t, false).view()))
	if _, err := parseReport([]byte(good)); err != nil {
		t.Fatalf("a node's own report does not parse: %v", err)
	}
	lines := strings.SplitAfter(good, "\n")
	rest := strings.Join(lines[1:], "")
	for name, b := range map[string]string{
		"empty":                 "",
		"no final newline":      strings.TrimSuffix(good, "\n"),
		"a shard row short":     strings.Join(lines[:len(lines)-2], ""),
		"a line more":           good + "extra 1\n",
		"rows swapped":          lines[1] + lines[0] + strings.Join(lines[2:], ""),
		"a float in an integer": "map_version 1.5\n" + rest,
		"no value":              "map_version\n" + rest,
		"a shard out of order":  strings.Replace(good, "shard0_", "shard1_", 1),
	} {
		if _, err := parseReport([]byte(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReportDerived: the report's derived values — the node-wide hit
// rate, each shard's hit rate and the node's summed queue depth — come
// out of the counters they are derived from, and read 0 where a shard
// ran no GETs or the worker runtime is down.
func TestReportDerived(t *testing.T) {
	get := func(rows []row[*view], key string, v *view, i int) any {
		for _, r := range rows {
			if r.key == key {
				return r.get(v, i)
			}
		}
		t.Fatalf("no report row %s", key)
		return nil
	}
	v := &view{
		rep: addrkv.Report{FastPathHitRate: 0.75, PerShard: []kv.Stats{{Gets: 10, FastHits: 5}, {}}},
		ws:  []shard.WorkerStats{{Depth: 1}, {Depth: 2}},
	}
	if got := get(reportRows, "hit_rate", v, 0); got != 0.75 {
		t.Errorf("hit_rate = %v, want the report's 0.75", got)
	}
	if got := get(reportRows, "queue_depth", v, 0); got != 3 {
		t.Errorf("queue_depth = %v, want 3", got)
	}
	for i, want := range []float64{0.5, 0} {
		if got := get(reportShardRows, "shard%d_hit_rate", v, i); got != want {
			t.Errorf("shard%d_hit_rate = %v, want %v", i, got, want)
		}
		if got := get(reportShardRows, "shard%d_queue_depth", v, i); got != i+1 {
			t.Errorf("shard%d_queue_depth = %v, want %d", i, got, i+1)
		}
	}
	v.ws = nil // worker runtime down
	if got := get(reportRows, "queue_depth", v, 0); got != 0 {
		t.Errorf("queue_depth without workers = %v, want 0", got)
	}
	if got := get(reportShardRows, "shard%d_queue_depth", v, 0); got != 0 {
		t.Errorf("shard0_queue_depth without workers = %v, want 0", got)
	}
	if got := newTestServer(t).view().rep.FastPathHitRate; got != 0 {
		t.Errorf("a fresh server's hit rate = %v, want 0 before any GET", got)
	}
}

// canonical re-renders a parsed report in the encoder's form.
func canonical(rep report) []byte {
	var b []byte
	for n, v := range rep {
		r, i := rowAt(n)
		b = append(b, indexed(r.key, i)+" "...)
		if x, ok := v.(int64); ok {
			b = strconv.AppendInt(b, x, 10)
		} else {
			b = strconv.AppendFloat(b, v.(float64), 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// FuzzParseReport: a report is bus input from another process, so no
// payload may panic the parser or the fleet surfaces that read what it
// accepts, and what it accepts has one canonical form.
func FuzzParseReport(f *testing.F) {
	var seed []byte
	put := func(r row[*view], i int) {
		val := "0.5"
		if r.verb == "%d" {
			val = "7"
		}
		seed = fmt.Appendf(seed, "%s %s\n", indexed(r.key, i), val)
	}
	for _, r := range reportRows {
		put(r, 0)
	}
	f.Add(append([]byte{}, seed...))
	for i := 0; i < 2; i++ {
		for _, r := range reportShardRows {
			put(r, i)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := parseReport(b)
		if err != nil {
			return
		}
		fleet := []fleetNode{{Report: rep}}
		fleetText(fleet)
		fleetMetrics(fleet)
		again, err := parseReport(canonical(rep))
		if err != nil {
			t.Fatalf("re-encoded report does not parse: %v", err)
		}
		if !bytes.Equal(canonical(again), canonical(rep)) {
			t.Fatalf("canonical form moved:\n%s\n%s", canonical(rep), canonical(again))
		}
	})
}

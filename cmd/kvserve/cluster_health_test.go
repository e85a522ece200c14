package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"addrkv/internal/cluster"
	"addrkv/internal/health"
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
// as node 0.
func TestHeartbeatCarriesLivenessOnly(t *testing.T) {
	s := newTestCluster(t, 2, false)[0]
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

// TestClusterHealthSurfaces covers the command plane: CLUSTER HEALTH
// line format, CLUSTER HEARTBEAT ON/OFF/STATUS, and the heartbeat and
// liveness fields added to CLUSTER INFO.
func TestClusterHealthSurfaces(t *testing.T) {
	srvs := newTestClusterOpts(t, 3, false, heartbeats)
	s0 := srvs[0]
	cs := &connState{id: 1}
	waitFor(t, 5*time.Second, "first heartbeat round", func() bool {
		return s0.clus.hbSent.Load() >= 2
	})

	txt := string(callCS(t, s0, cs, "CLUSTER", "HEALTH").([]byte))
	lines := strings.Split(strings.TrimRight(txt, "\r\n"), "\r\n")
	if len(lines) != 3 {
		t.Fatalf("CLUSTER HEALTH rendered %d lines, want 3:\n%s", len(lines), txt)
	}
	for i, ln := range lines {
		for _, want := range []string{fmt.Sprintf("node:%d ", i), "state:ok", "up:1", "slots_owned:", "ops_per_sec:"} {
			if !strings.Contains(ln, want) {
				t.Fatalf("health line %d missing %q: %s", i, want, ln)
			}
		}
	}

	st := string(callCS(t, s0, cs, "CLUSTER", "HEARTBEAT", "STATUS").([]byte))
	for _, want := range []string{"heartbeat_enabled:1", "heartbeat_on:1", "heartbeat_interval_ms:25", "heartbeat_down_after:16"} {
		if !strings.Contains(st, want) {
			t.Fatalf("HEARTBEAT STATUS missing %q:\n%s", want, st)
		}
	}
	if got := callCS(t, s0, cs, "CLUSTER", "HEARTBEAT", "OFF"); got != "OK" {
		t.Fatalf("HEARTBEAT OFF = %v", got)
	}
	if s0.clus.hbOn.Load() {
		t.Fatal("heartbeats still on after OFF")
	}
	if got := callCS(t, s0, cs, "CLUSTER", "HEARTBEAT", "ON"); got != "OK" {
		t.Fatalf("HEARTBEAT ON = %v", got)
	}
	if !s0.clus.hbOn.Load() {
		t.Fatal("heartbeats not re-enabled by ON")
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

// TestClusterHeartbeatDisabledRefusesOn: with -heartbeat-interval 0
// there are no loops to enable, so CLUSTER HEARTBEAT ON must refuse
// (silently "enabling" nothing would be a lie) while STATUS still
// answers.
func TestClusterHeartbeatDisabledRefusesOn(t *testing.T) {
	s := newTestCluster(t, 1, false)[0]
	cs := &connState{id: 1}
	got := callCS(t, s, cs, "CLUSTER", "HEARTBEAT", "ON")
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "heartbeats disabled") {
		t.Fatalf("HEARTBEAT ON with interval 0 = %v, want refusal", got)
	}
	st := string(callCS(t, s, cs, "CLUSTER", "HEARTBEAT", "STATUS").([]byte))
	if !strings.Contains(st, "heartbeat_enabled:0") {
		t.Fatalf("HEARTBEAT STATUS = %s", st)
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
	// The deadline is DownAfter (4) missed 20ms intervals; the bound
	// here is deliberately loose for CI scheduling noise but still pins
	// detection to the deadline mechanism, not to some minutes-long
	// TCP timeout.
	if elapsed := time.Since(killed); elapsed > 5*time.Second {
		t.Fatalf("down detection took %v", elapsed)
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

	// Digests are cached for half a heartbeat interval, so the
	// destination's row may briefly predate the batch install; poll
	// until the migrated keys show up there.
	var rows []map[string]string
	waitFor(t, 5*time.Second, "destination digest to include migrated keys", func() bool {
		rows = rows[:0]
		txt := string(callCS(t, s0, cs, "CLUSTER", "HEALTH").([]byte))
		for _, ln := range strings.Split(strings.TrimRight(txt, "\r\n"), "\r\n") {
			row := map[string]string{}
			for _, f := range strings.Fields(ln) {
				k, v, _ := strings.Cut(f, ":")
				row[k] = v
			}
			rows = append(rows, row)
		}
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

package main

import (
	"net"
	"os"
	"strings"
	"testing"

	"addrkv/internal/kvproc"
	"addrkv/internal/resp"
)

// sampleReplies are canned replies in kvserve's RESP text form: a
// healthy node with a digest, a dead node without one, and a finished
// migration — the three rendering shapes kvtop distinguishes.
var sampleReplies = map[string]string{
	"CLUSTER HEALTH": "node:0 addr:127.0.0.1:6380 bus:127.0.0.1:7380 state:ok age_ms:0 beats:60 up:1 map_version:3" +
		" slots_owned:8192 slots_migrating:1 slots_importing:0 ops:5000 keys:1234 used_bytes:99000 hit_rate:0.8750" +
		" queue_depth:3 ops_per_sec:2500.0 lat_p50_us:11.5 lat_p99_us:90.2\r\n" +
		"node:1 addr:127.0.0.1:6381 bus:127.0.0.1:7381 state:down age_ms:4200 beats:31 up:0\r\n",
	"CLUSTER INFO": "cluster_state:degraded\r\n# cluster\r\ncluster_enabled:1\r\ncluster_node_index:0\r\n" +
		"cluster_known_nodes:2\r\ncluster_map_version:3\r\n",
	"CLUSTER HEARTBEAT STATUS": "heartbeat_enabled:1\r\nheartbeat_interval_ms:500\r\n" +
		"heartbeat_down_after:4\r\nheartbeats_sent:120\r\nheartbeat_failures:2\r\n",
	"CLUSTER MIGRATE STATUS": "migration_slot:42\r\nmigration_dest:1\r\nmigration_active:0\r\nmigration_resumed:0\r\n" +
		"migration_failed:0\r\nmigration_keys_total:40\r\nmigration_keys_shipped:40\r\nmigration_keys_remaining:0\r\n" +
		"migration_batches_total:5\r\nmigration_batches_shipped:5\r\nmigration_bytes:4096\r\n" +
		"migration_elapsed_us:1500\r\nmigration_eta_us:0\r\n",
}

// stubNode answers each command on a loopback RESP listener with its
// entry in replies as a bulk string, and anything else with an error
// reply. It returns the listener's address.
func stubNode(t *testing.T, replies map[string]string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := resp.NewReader(conn), resp.NewWriter(conn)
				for {
					args, err := r.ReadCommand()
					if err != nil {
						return
					}
					cmd := make([]string, len(args))
					for i, a := range args {
						cmd[i] = string(a)
					}
					if rep, ok := replies[strings.Join(cmd, " ")]; ok {
						w.WriteBulk([]byte(rep))
					} else {
						w.WriteError("ERR no migration has run on this node")
					}
					if w.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFetchAndRender drives the full path — RESP fetch, field parse,
// table render — against a stub node and pins the table content.
func TestFetchAndRender(t *testing.T) {
	f, err := fetch(stubNode(t, sampleReplies))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if missing := render(&b, f); len(missing) > 0 {
		t.Fatalf("render read absent fields %v", missing)
	}
	out := b.String()

	for _, want := range []string{
		"state=degraded", "map=v3", "heartbeat=500ms x4", "source=node0",
		"NODE", "STATE", "OPS/S", // table header
		"127.0.0.1:6380", "8192", "1234", "2500", "87.5", // node 0 digest row
		"down", "127.0.0.1:6381", // node 1 liveness row
		"migration slot 42 -> node 1: done", "40/40 keys (100%)", "5/5 batches",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered frame missing %q:\n%s", want, out)
		}
	}
	// The dead node renders placeholders, never stale digest numbers.
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, "127.0.0.1:6381") && !strings.Contains(ln, " - ") {
			t.Fatalf("dead node row has no placeholder fields: %s", ln)
		}
	}

	// Before any migration the node answers MIGRATE STATUS with an
	// error reply: the frame has no migration block.
	noMig := map[string]string{}
	for k, v := range sampleReplies {
		if k != "CLUSTER MIGRATE STATUS" {
			noMig[k] = v
		}
	}
	if f, err = fetch(stubNode(t, noMig)); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	render(&b, f)
	if f.mig != nil || strings.Contains(b.String(), "migration") {
		t.Fatalf("frame without a migration renders one:\n%s", b.String())
	}
}

// TestFetchErrors: a node without cluster support, an error reply to an
// INFO-shaped command and an unreachable address surface as errors, not
// empty frames.
func TestFetchErrors(t *testing.T) {
	if _, err := fetch(stubNode(t, nil)); err == nil {
		t.Fatal("an error reply to CLUSTER HEALTH did not error")
	}
	healthOnly := map[string]string{"CLUSTER HEALTH": sampleReplies["CLUSTER HEALTH"]}
	if _, err := fetch(stubNode(t, healthOnly)); err == nil || !strings.Contains(err.Error(), "want a bulk string") {
		t.Fatalf("an error reply to CLUSTER INFO = %v, want a refusal", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := fetch(addr); err == nil {
		t.Fatal("dead server did not error")
	}
}

// layoutSection returns the lines of section "== name ==" of one of
// kvserve's captured surface layouts.
func layoutSection(t *testing.T, file, name string) string {
	t.Helper()
	b, err := os.ReadFile("../kvserve/testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "== "+name+" ==\n")
	if !ok {
		t.Fatalf("%s has no %q section", file, name)
	}
	if i := strings.Index(rest, "\n== "); i >= 0 {
		rest = rest[:i+1]
	}
	return strings.ReplaceAll(rest, "\n", "\r\n")
}

// TestReadsOnlyServedKeys holds every key kvtop reads against the
// replies kvserve's surface layouts pin (a 1-node cluster for CLUSTER
// HEALTH, INFO and HEARTBEAT STATUS, a 2-node migration for MIGRATE
// STATUS): renaming a series row kvtop renders fails here.
func TestReadsOnlyServedKeys(t *testing.T) {
	f := &frame{
		nodes: parseHealth(layoutSection(t, "cluster.layout", "CLUSTER HEALTH")),
		info:  kvproc.ParseInfo([]byte(layoutSection(t, "cluster.layout", "CLUSTER INFO"))),
		hb:    kvproc.ParseInfo([]byte(layoutSection(t, "cluster.layout", "CLUSTER HEARTBEAT STATUS"))),
		mig:   kvproc.ParseInfo([]byte(layoutSection(t, "migrate.layout", "CLUSTER MIGRATE STATUS"))),
	}
	var b strings.Builder
	if missing := render(&b, f); len(missing) > 0 {
		t.Fatalf("kvtop reads keys kvserve does not serve: %v\n%s", missing, b.String())
	}
	if out := b.String(); !strings.Contains(out, "node-0") || !strings.Contains(out, "yes") || !strings.Contains(out, "migration slot 42") {
		t.Fatalf("the layout frame lacks the node row or the migration line:\n%s", out)
	}
}

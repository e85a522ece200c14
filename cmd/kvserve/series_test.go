package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape returns the /metrics payload of s.
func scrape(t *testing.T, s *server) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.tele.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fleetScrape returns the /cluster/metrics payload of s.
func fleetScrape(s *server) string {
	rec := httptest.NewRecorder()
	s.clusterMetricsHandler(rec, nil)
	return rec.Body.String()
}

// samples parses a Prometheus payload into name{labels} -> value,
// failing on a sample exported twice.
func samples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if _, dup := out[line[:cut]]; dup {
			t.Errorf("sample %s exported twice", line[:cut])
		}
		out[line[:cut]] = v
	}
	return out
}

// aofServerAfterScript and migratedCluster are the two servers the
// table tests read: between them every section has live values.
func aofServerAfterScript(t *testing.T) *server {
	s := newPersistServer(t, 2, t.TempDir(), "always", true)
	layoutScript(t, s)
	return s
}

func migratedCluster(t *testing.T, workers bool) *server {
	s := newTestCluster(t, 2, workers)[0]
	for i, k := range keysInSlot(t, 42, 25) {
		call(t, s, "SET", k, fmt.Sprintf("v-%d", i))
	}
	if rep, ok := call(t, s, "CLUSTER", "MIGRATE", "42", "1").(string); !ok || !strings.HasPrefix(rep, "OK slot=42") {
		t.Fatalf("CLUSTER MIGRATE = %v", rep)
	}
	return s
}

// TestScrapeTakesStatsMu: /metrics collects under statsMu like INFO
// and the fleet digest, so a scrape cannot mix the two sides of a
// RESETSTATS. (The parent read sys.Report() in its scrape hook without
// the lock.)
func TestScrapeTakesStatsMu(t *testing.T) {
	s := newTestServer(t)
	s.statsMu.Lock()
	done := make(chan error, 1)
	go func() { done <- s.tele.reg.WritePrometheus(io.Discard) }()
	select {
	case <-done:
		s.statsMu.Unlock()
		t.Fatal("the scrape returned while a RESETSTATS held statsMu")
	case <-time.After(50 * time.Millisecond):
	}
	s.statsMu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the scrape did not finish once statsMu was released")
	}
}

// TestTotalFamiliesAreCounters: on both endpoints of a standalone -aof
// server and a cluster node, a family is TYPE counter if and only if it
// is named *_total. (The parent typed 29 *_total families gauge, by
// which helper had registered them.)
func TestTotalFamiliesAreCounters(t *testing.T) {
	cl := migratedCluster(t, false)
	for name, body := range map[string]string{
		"aof /metrics":             scrape(t, aofServerAfterScript(t)),
		"cluster /metrics":         scrape(t, cl),
		"cluster /cluster/metrics": fleetScrape(cl),
	} {
		types := 0
		for _, line := range strings.Split(body, "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" {
				continue
			}
			types++
			if fam, typ := f[2], f[3]; strings.HasSuffix(fam, "_total") != (typ == "counter") {
				t.Errorf("%s: %s is TYPE %s", name, fam, typ)
			}
		}
		if types == 0 {
			t.Errorf("%s: no TYPE lines", name)
		}
	}
}

// derivedRows are the numeric text rows that deliberately export no
// family of their own, by reason; TestSeriesTable fails on a numeric row
// that has neither a family nor an entry here.
var derivedRows = map[string][]string{
	"echoes a flag or the topology; does not move while serving": {
		"shards", "queue_cap", "aof_enabled", "cluster_enabled", "cluster_node_index",
		"cluster_known_nodes", "cluster_heartbeat_enabled", "cluster_heartbeat_interval_ms",
		"cluster_heartbeat_down_after"},
	"count, mean or percentile of an exported histogram (command_latency_seconds, op_cycles, pipeline_depth, aof_fsync_seconds)": {
		"latency_samples", "latency_mean_us", "latency_p50_us", "latency_p90_us", "latency_p99_us", "latency_p999_us",
		"latency_max_us", "op_cycles_p50", "op_cycles_p99", "op_cycles_max", "pipeline_depth_mean", "pipeline_depth_p99",
		"pipeline_depth_max", "aof_fsync_mean_us", "shard%d_cycles_p99"},
	"reads a hot-path instrument that registers its own family": {
		"shed_conns", "pipeline_batches", "pipelined_commands", "early_flushes", "batch_commands", "batched_keys"},
	"sum or minimum over shards of an exported per-shard family": {
		"queue_depth", "aof_size_bytes", "aof_appends", "aof_fsyncs", "aof_rewrites", "last_save_unix"},
	"ratio, difference or factor of exported rows (ops x cycles_per_op, hit-rate numerator and denominator, known - suspect - down)": {
		"server_ops", "cycles", "max_shard_cycles", "shard%d_ops", "shard%d_cycles", "shard%d_fast_hits",
		"cluster_gets_total", "cluster_fast_hits_total", "drain_mean", "cluster_nodes_ok"},
	"detail of the last event beside an exported counter of such events": {
		"sweep_last_reaped", "recovered_records", "cluster_last_migration_slot", "cluster_last_migration_us"},
	"CLUSTER MIGRATE STATUS detail: a flag, or the difference or microsecond twin of an exported row": {
		"migration_dest", "migration_resumed", "migration_failed", "migration_keys_remaining", "migration_batches_total",
		"migration_elapsed_us", "migration_eta_us"},
}

// TestSeriesTable is the table's self-check: text keys unique, families
// unique (so family+label sets are), HELP present exactly on exported
// rows, and every numeric text row either exported or listed as derived.
func TestSeriesTable(t *testing.T) {
	derived := map[string]bool{}
	for _, keys := range derivedRows {
		for _, k := range keys {
			derived[k] = true
		}
	}
	keys, fams := map[string]bool{}, map[string]bool{}
	check := func(key, verb, fam, help string, numericMustExport bool) {
		switch {
		case key == "" && fam == "":
			t.Errorf("a row with help %q is shown nowhere", help)
		case (key == "") != (verb == ""):
			t.Errorf("row %s%s: key and verb go together", key, fam)
		case (fam == "") != (help == ""):
			t.Errorf("row %s%s: family and HELP go together", key, fam)
		case key != "" && keys[key]:
			t.Errorf("text key %s declared twice", key)
		case fam != "" && fams[fam]:
			t.Errorf("family %s declared twice", fam)
		case fam != "" && !strings.HasPrefix(fam, "addrkv_"):
			t.Errorf("family %s lacks the addrkv_ prefix", fam)
		}
		keys[key], fams[fam] = true, true
		numeric := verb != "" && verb != "%s" && verb != "%v"
		if numericMustExport && numeric && fam == "" && !derived[key] {
			t.Errorf("numeric row %s has no family and is not in derivedRows", key)
		}
		if derived[key] && fam != "" {
			t.Errorf("row %s is listed as derived but exports %s", key, fam)
		}
		delete(derived, key)
	}
	for _, sec := range series {
		if sec.on == 0 {
			t.Errorf("section %q is on no text surface", sec.title)
		}
		for _, r := range sec.rows {
			check(r.key, r.verb, r.fam, r.help, true)
		}
	}
	for k := range derived {
		t.Errorf("derivedRows names %s, which is not a row", k)
	}
	// The fleet rows are a table of their own (CLUSTER HEALTH fields are
	// spelled like digest fields, not like INFO keys).
	keys = map[string]bool{}
	for _, r := range append(append([]row[fleetNode]{}, fleetRows...), fleetShardRows...) {
		check(r.key, r.verb, r.fam, r.help, false)
	}
}

// TestSeriesRenderingsAgree: for every row that has both a text key and
// a family, the text surfaces and /metrics show the same number — read
// end to end from a quiescent server, so the registration (family,
// shard label, counter or gauge function) is checked with the getter.
func TestSeriesRenderingsAgree(t *testing.T) {
	for name, s := range map[string]*server{"aof": aofServerAfterScript(t), "cluster": migratedCluster(t, false)} {
		v := s.view()
		text := map[string]string{}
		for _, line := range strings.Split(renderText(v, ^surface(0)), "\r\n") {
			if k, v, ok := strings.Cut(line, ":"); ok {
				text[k] = v
			}
		}
		got := samples(t, scrape(t, s))
		compared := 0
		for _, sec := range series {
			n := 1
			if sec.perShard {
				n = s.sys.Cluster().NumShards()
			}
			for _, r := range sec.rows {
				if r.key == "" || r.fam == "" || !v.has(sec.when) {
					continue
				}
				for i := 0; i < n; i++ {
					sampleName := r.fam
					if sec.perShard {
						sampleName = fmt.Sprintf("%s{shard=\"%d\"}", r.fam, i)
					}
					val, exported := got[sampleName]
					if !exported {
						t.Errorf("%s: %s is not on /metrics", name, sampleName)
						continue
					}
					shown, ok := text[indexed(r.key, i)]
					if !ok { // a conditional line that is absent reads 0
						shown = "0"
					}
					want, err := strconv.ParseFloat(shown, 64)
					if err != nil {
						t.Errorf("%s: %s:%s is not a number", name, r.key, shown)
						continue
					}
					// The text value is rounded to the verb's precision.
					tol := 0.0
					if _, frac, ok := strings.Cut(shown, "."); ok {
						tol = 0.5 * math.Pow(10, -float64(len(frac)))
					}
					if math.Abs(val-want) > tol+1e-12 {
						t.Errorf("%s: %s:%s but %s %g", name, indexed(r.key, i), shown, sampleName, val)
					}
					compared++
				}
			}
		}
		if compared < 30 {
			t.Errorf("%s: only %d rows compared", name, compared)
		}
	}
}

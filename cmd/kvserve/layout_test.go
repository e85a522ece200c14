package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The surface layouts under testdata/ were captured from commit 0f9c9ac,
// where every reporting surface still hand-listed its fields; the tests
// below compare what the series table renders now against what the hand
// lists rendered then — two independently produced answers. Regenerate
// with `go test ./cmd/kvserve -run SurfaceLayout -update-layouts` only
// when a surface is meant to change, and say so in the PR.
var updateLayouts = flag.Bool("update-layouts", false, "rewrite testdata/*.layout from the running code")

// addedFamilies are the families the series table exports and the
// captured parent did not; the only permitted /metrics difference.
var addedFamilies = map[string][]string{
	"reference": {"addrkv_expiry_sweep_cycles_total", "addrkv_expiry_sweep_reaped_total", "addrkv_worker_drain_max"},
	"aof": {"addrkv_expiry_sweep_cycles_total", "addrkv_expiry_sweep_reaped_total", "addrkv_worker_drain_max",
		"addrkv_aof_commits_total", "addrkv_recovered_torn_bytes"},
	"cluster": {"addrkv_expiry_sweep_cycles_total", "addrkv_expiry_sweep_reaped_total", "addrkv_worker_drain_max",
		"addrkv_cluster_migrations_started_total", "addrkv_cluster_migrations_failed_total", "addrkv_cluster_import_batches_total"},
}

// unmodeled matches the text keys whose value depends on wall time,
// scheduling or a kernel-chosen port; their layout line records the
// value's format class instead of the value.
var unmodeled = regexp.MustCompile(`^(latency_(mean|p50|p90|p99|p999|max)_us|aof_fsync_mean_us|aof_commits|aof_extends|aof_padding_bytes|aof_fsyncs|` +
	`worker_drains|drain_mean|drain_max|queue_depth|cluster_bus_addr|bus|age_ms|beats|ops_per_sec|lat_p50_us|lat_p99_us|` +
	`migration_elapsed_us|migration_eta_us|cluster_last_migration_us)$`)

var (
	intValue   = regexp.MustCompile(`^-?[0-9]+$`)
	floatValue = regexp.MustCompile(`^-?[0-9]+\.([0-9]+)$`)
)

// fieldLayout renders one key:value field: the exact value where it is
// modeled (and therefore deterministic), its format class otherwise.
func fieldLayout(field string) string {
	key, val, ok := strings.Cut(field, ":")
	if !ok || !unmodeled.MatchString(key) {
		return field
	}
	switch m := floatValue.FindStringSubmatch(val); {
	case intValue.MatchString(val):
		return key + ":%d"
	case m != nil:
		return fmt.Sprintf("%s:%%.%df", key, len(m[1]))
	}
	return key + ":%s"
}

// textLayout is the ordered layout of an INFO-style payload (CRLF lines
// of space-separated key:value fields; "# section" lines verbatim).
func textLayout(txt string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(txt, "\r\n"), "\r\n") {
		if !strings.HasPrefix(line, "#") {
			fields := strings.Split(line, " ")
			for i, f := range fields {
				fields[i] = fieldLayout(f)
			}
			line = strings.Join(fields, " ")
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// promLayout is the sorted layout of a Prometheus payload: HELP lines
// and sample names with their labels, without values, TYPE lines or the
// data-dependent histogram buckets. Lines of the families in added are
// dropped and reported in seen.
func promLayout(body string, added []string) (layout string, seen map[string]bool) {
	seen = map[string]bool{}
	var lines []string
next:
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.TrimPrefix(line, "# HELP ")
		if name == line {
			line = line[:strings.LastIndexByte(line, ' ')]
			name = line
		}
		name = name[:strings.IndexAny(name+" ", " {")]
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		for _, fam := range added {
			if name == fam {
				seen[fam] = true
				continue next
			}
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", seen
}

// layoutScript is the fixed command script the captured configurations
// ran, one command per burst so drain and pipeline counts are modeled.
func layoutScript(t *testing.T, s *server) {
	t.Helper()
	for i := 0; i < 12; i++ {
		call(t, s, "SET", fmt.Sprintf("lk-%d", i), fmt.Sprintf("value-%d", i))
	}
	for i := 0; i < 12; i++ {
		call(t, s, "GET", fmt.Sprintf("lk-%d", i))
	}
	call(t, s, "GET", "lk-absent")
	call(t, s, "EXPIRE", "lk-0", "100")
	call(t, s, "TTL", "lk-0")
	call(t, s, "MGET", "lk-1", "lk-2", "lk-3")
	call(t, s, "EXISTS", "lk-1")
	call(t, s, "DEL", "lk-11")
}

// surfaceLayout reads every reporting surface of s, INFO first so its
// own latency sample count is modeled too.
func surfaceLayout(t *testing.T, s *server, config string) string {
	t.Helper()
	var b strings.Builder
	text := func(args ...string) {
		fmt.Fprintf(&b, "== %s ==\n%s", strings.Join(args, " "), textLayout(string(call(t, s, args...).([]byte))))
	}
	prom := func(name, body string) {
		layout, seen := promLayout(body, addedFamilies[config])
		fmt.Fprintf(&b, "== %s ==\n%s", name, layout)
		for _, fam := range addedFamilies[config] {
			if !seen[fam] && !*updateLayouts {
				t.Errorf("%s: %s lacks the added family %s", config, name, fam)
			}
		}
	}
	text("INFO")
	if s.clus != nil {
		text("CLUSTER", "INFO")
		text("CLUSTER", "HEALTH")
		text("CLUSTER", "HEARTBEAT", "STATUS")
	}
	prom("/metrics", scrape(t, s))
	if s.clus != nil {
		layout, _ := promLayout(fleetScrape(s), nil)
		fmt.Fprintf(&b, "== /cluster/metrics ==\n%s", layout)
	}
	return b.String()
}

// checkLayout compares got against testdata/<config>.layout (or rewrites
// the file under -update-layouts).
func checkLayout(t *testing.T, config, got string) {
	t.Helper()
	path := filepath.Join("testdata", config+".layout")
	if *updateLayouts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the captured layout at line %d:\n now: %s\nthen: %s", path, i+1, g, w)
		}
	}
}

// TestSurfaceLayout: then vs now. Three configurations — a fresh
// 1-shard worker-less reference server (every conditional line absent),
// 2 shards with the AOF and the worker runtime after the script, and a
// 1-node cluster after the same script — plus the migration status of a
// 2-node cluster, each compared against the layout the hand-written
// renderers of the parent commit produced.
func TestSurfaceLayout(t *testing.T) {
	t.Run("reference", func(t *testing.T) {
		checkLayout(t, "reference", surfaceLayout(t, newTestServer(t), "reference"))
	})
	t.Run("aof", func(t *testing.T) {
		s := newPersistServer(t, 2, t.TempDir(), "always", true)
		t.Cleanup(func() { shutdownPersist(s) })
		layoutScript(t, s)
		checkLayout(t, "aof", surfaceLayout(t, s, "aof"))
	})
	t.Run("cluster", func(t *testing.T) {
		o := hbTestOpts()
		s := newTestClusterOpts(t, 1, true, o)[0]
		layoutScript(t, s)
		checkLayout(t, "cluster", surfaceLayout(t, s, "cluster"))
	})
	t.Run("migrate", func(t *testing.T) {
		s := newTestCluster(t, 2, false)[0]
		for i, k := range keysInSlot(t, 42, 25) {
			call(t, s, "SET", k, fmt.Sprintf("v-%d", i))
		}
		call(t, s, "CLUSTER", "MIGRATE", "42", "1")
		got := "== CLUSTER MIGRATE STATUS ==\n" + textLayout(string(call(t, s, "CLUSTER", "MIGRATE", "STATUS").([]byte)))
		checkLayout(t, "migrate", got)
	})
}

package harness

import (
	"strconv"
	"strings"
	"testing"
)

func strconvParse(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// ResetCache drops all memoized results.
func ResetCache() {
	runCacheMu.Lock()
	defer runCacheMu.Unlock()
	runCache = map[string]result{}
}

// tinyScale keeps harness tests fast; shape targets are not asserted
// at this scale (see EXPERIMENTS.md for calibrated runs), only that
// every experiment runs end-to-end and produces well-formed tables.
func tinyScale() Scale {
	return Scale{Keys: 12_000, WarmFactor: 1.5, MeasureOps: 4_000, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19l", "fig19r", "tab1", "tab5",
		"ext-hwhash", "ext-hugepage", "ext-skiplist", "ext-latency",
		"ext-shards",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, e := range All() {
		if e.Title == "" || e.Shape == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely described", e.ID)
		}
		if e.Scale.Keys <= 0 {
			t.Errorf("experiment %s declares no scale", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig11"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", 12345.0)
	out := tb.Render()
	for _, want := range []string{"demo", "a", "bb", "2.500", "xyz", "12345"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "xyz,12345") {
		t.Errorf("csv row wrong: %q", csv)
	}
	tb.AddRow("4 entries, 6 bits", 1)
	if csv := tb.CSV(); !strings.HasSuffix(csv, "\"4 entries, 6 bits\",1\n") {
		t.Errorf("a cell with a comma is not quoted: %q", csv)
	}
}

func TestStltRowsForScaling(t *testing.T) {
	// At the paper's own scale the label must round-trip (up to the
	// power-of-two set rounding).
	rows := stltRowsFor(512, 10_000_000, 4)
	gotMB := float64(rows) * 16 / (1 << 20)
	if gotMB < 512 || gotMB > 1024 {
		t.Fatalf("512MB label -> %f MB", gotMB)
	}
	// Monotone in label.
	prev := 0
	for _, mb := range paperSizeLabelsMB {
		r := stltRowsFor(mb, 300_000, 4)
		if r < prev {
			t.Fatalf("rows not monotone at %dMB", mb)
		}
		prev = r
	}
}

func TestTab1RunsExact(t *testing.T) {
	e, _ := ByID("tab1")
	tables := e.Run(tinyScale())
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	if !strings.Contains(tables[0].Render(), "6694") {
		t.Fatal("hardware total missing")
	}
}

func TestFig1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ResetCache()
	e, _ := ByID("fig1")
	tables := e.Run(tinyScale())
	out := tables[0].Render()
	if !strings.Contains(out, "key hashing") {
		t.Fatalf("breakdown malformed:\n%s", out)
	}
}

// TestFig11Runs drives the paper's headline experiment end to end:
// every workload row and the average carry a positive speedup for
// both tables.
func TestFig11Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ResetCache()
	e, _ := ByID("fig11")
	tables := e.Run(tinyScale())
	rows := tables[0].Rows
	if len(rows) != len(fig11Dists)*len(fig11Sizes)+1 || rows[len(rows)-1][0] != "AVERAGE" {
		t.Fatalf("unexpected rows:\n%s", tables[0].Render())
	}
	for _, r := range rows {
		for _, cell := range r[1:] {
			if v, err := strconvParse(cell); err != nil || v <= 0 {
				t.Fatalf("row %s: bad speedup %q:\n%s", r[0], cell, tables[0].Render())
			}
		}
	}
}

func TestFig18Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ResetCache()
	e, _ := ByID("fig18")
	tables := e.Run(tinyScale())
	out := tables[0].Render()
	for _, h := range []string{"sipHash", "murmurHash", "xxh64", "djb2", "xxh3"} {
		if !strings.Contains(out, h) {
			t.Fatalf("hash %s missing:\n%s", h, out)
		}
	}
}

func TestFig19LeftRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ResetCache()
	e, _ := ByID("fig19l")
	tables := e.Run(tinyScale())
	if len(tables[0].Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestExtShardsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	e, _ := ByID("ext-shards")
	tables := e.Run(tinyScale())
	t0 := tables[0]
	if len(t0.Rows) < 3 {
		t.Fatalf("expected at least 3 shard counts, got %d rows", len(t0.Rows))
	}
	// The 1-shard row normalizes the modeled speedup to 1.
	if t0.Rows[0][3] != "1.000" {
		t.Fatalf("1-shard speedups not normalized:\n%s", t0.Render())
	}
	// Modeled speedup must grow with shards (near-linear scaling).
	s2, _ := strconvParse(t0.Rows[1][3])
	s4, _ := strconvParse(t0.Rows[2][3])
	if !(s2 > 1.2 && s4 > s2) {
		t.Fatalf("modeled scaling curve not increasing (x2=%v, x4=%v):\n%s", s2, s4, t0.Render())
	}
}

func TestRunCacheMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ResetCache()
	sc := tinyScale()
	sp := spec{}
	r1 := run(sc, sp)
	r2 := run(sc, sp)
	if r1.CPO != r2.CPO {
		t.Fatal("memoized run differs")
	}
}

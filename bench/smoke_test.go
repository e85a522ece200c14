package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestCatalogueMatchesSpec holds the lists in catalog.go and
// BENCHMARK.json together: same workloads, same metrics, same units, in
// the same order.
func TestCatalogueMatchesSpec(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalogue %q (%q)",
				i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the catalogue %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.name, got[i].Better)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			for _, o := range sp.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has bound %v, above setup_s's %v", o.Name, o.Bound, m.Bound)
				}
			}
		}
	}
}

// TestSmoke runs all four workloads at 1/100 scale, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed exactly
// once with its unit, in the table and in the result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs kvserve")
	}
	sp := loadSpec(t)
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range sp.Workloads {
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			outDir := t.TempDir()
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "0.5",
				"--trace", string(rune('0'+trace)), "-scale", "0.01", "-out", outDir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s\n%s", w.Name, trace, err, out, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: result carries %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				printed := 0
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%d: %s [%s] printed %d times, want once", w.Name, trace, m.Name, m.Unit, printed)
				}
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: result has %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if trace == 0 && res.Metrics[m.Name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no trace file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join("..", buildDir, "run-*")); len(left) > 0 {
		t.Errorf("runs left their private directories behind: %v", left)
	}
}

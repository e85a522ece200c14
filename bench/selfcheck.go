package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// spec mirrors BENCHMARK.json at the module root.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// exact lists the metrics that are functions of the seed alone: every run
// of one tree with one seed must agree to the last bit.
var exact = map[string]bool{"modeled_cycles_per_op": true, "stlt_speedup": true, "verified_share": true}

// selfcheckRuns is how many runs make one set. One run against one run
// would test the host's noise, not the benchmark; the sets are also
// interleaved, so a drift of the host falls on both.
const selfcheckRuns = 3

// runSelfcheck runs the untraced suite twice on the same tree, each set
// the median of selfcheckRuns runs, and holds every pair of values
// against the metric's declared bound.
func runSelfcheck(seed uint64, seconds, scale float64) int {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	// vals[set][workload][metric] lists the runs' values.
	var vals [2]map[string]map[string][]float64
	for i := range vals {
		vals[i] = map[string]map[string][]float64{}
	}
	for run := 0; run < selfcheckRuns; run++ {
		for set := range vals {
			for _, w := range workloads {
				res, err := child(w.name, seed, seconds, 0, scale, "", false)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s (set %d, run %d): correct=%v failed=%d err=%v\n", w.name, set+1, run+1, res.Correct, res.Failed, err)
					return 1
				}
				if vals[set][w.name] == nil {
					vals[set][w.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					vals[set][w.name][name] = append(vals[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "# selfcheck: run %d of %d, set %d, %s done\n", run+1, selfcheckRuns, set+1, w.name)
			}
		}
	}
	code := 0
	fmt.Printf("%-15s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "rel.diff", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			first, second := vals[0][w.name][m.Name], vals[1][w.name][m.Name]
			a, b := median(first), median(second)
			rel := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			switch {
			case exact[m.Name] && spread(slices.Concat(first, second)) != 0:
				verdict, code = "DIFFERS (must be bit-identical)", 1
			case !exact[m.Name] && rel > m.Bound:
				verdict, code = "OUTSIDE BOUND", 1
			}
			fmt.Printf("%-15s %-28s %14.6g %14.6g %9.4f %7.3f  %s\n", w.name, m.Name, a, b, rel, m.Bound, verdict)
		}
	}
	return code
}

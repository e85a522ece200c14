// Command stltbench regenerates the paper's tables and figures.
//
// Usage:
//
//	stltbench -list                 # show all experiment ids
//	stltbench -exp fig11            # run one experiment
//	stltbench -exp all              # run everything (slow)
//	stltbench -exp fig13 -keys 600000 -measure 128000
//	stltbench -exp fig14 -quick     # trimmed sweeps
//	stltbench -exp fig11 -csv out/  # also write CSV files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"addrkv/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		keys    = flag.Int("keys", 0, "number of distinct keys (default 400000)")
		warm    = flag.Float64("warm", 0, "warm-up ops as a multiple of keys (default 3)")
		measure = flag.Int("measure", 0, "measured operations (default 64000)")
		quick   = flag.Bool("quick", false, "trim sweep experiments for a fast pass")
		verbose = flag.Bool("v", false, "log each simulation run")
		csvDir  = flag.String("csv", "", "directory to also write CSV outputs into")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-8s %s\n         shape: %s\n", e.ID, e.Title, e.Shape)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "stltbench: -exp required (or -list); e.g. -exp fig11")
		os.Exit(2)
	}

	sc := harness.DefaultScale()
	if *keys > 0 {
		sc.Keys = *keys
	}
	if *warm > 0 {
		sc.WarmFactor = *warm
	}
	if *measure > 0 {
		sc.MeasureOps = *measure
	}
	sc.Quick = *quick
	sc.Verbose = *verbose

	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "stltbench:", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	for _, e := range exps {
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("    paper shape: %s\n\n", e.Shape)
		for i, t := range e.Run(sc) {
			fmt.Println(t.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "stltbench:", err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", e.ID, i)
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "stltbench:", err)
					os.Exit(1)
				}
				fmt.Printf("(csv: %s)\n", path)
			}
		}
		fmt.Printf("[%s done in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// Command stltbench regenerates the paper's tables and figures. Each
// experiment runs at the one scale it declares (-list prints it), the
// scale its committed results/<id>_<n>.csv was written at.
//
// Usage:
//
//	stltbench -list                  # show all experiment ids and scales
//	stltbench -exp fig11             # run one experiment
//	stltbench -exp fig11,tab5 -v     # run two, logging each simulation
//	stltbench -exp all -csv results  # rewrite every committed CSV (slow)
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
		list    = flag.Bool("list", false, "list experiments and their scales, and exit")
		verbose = flag.Bool("v", false, "log each simulation run")
		csvDir  = flag.String("csv", "", "directory to also write CSV outputs into")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			sc := e.Scale
			fmt.Printf("%-12s %s\n             scale: %d keys, %gx warm-up, %d measured ops",
				e.ID, e.Title, sc.Keys, sc.WarmFactor, sc.MeasureOps)
			if sc.Quick {
				fmt.Print(", trimmed sweeps")
			}
			fmt.Printf("\n             shape: %s\n", e.Shape)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "stltbench: -exp required (or -list); e.g. -exp fig11")
		os.Exit(2)
	}

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
		sc := e.Scale
		sc.Verbose = *verbose
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

package addrkv

// One benchmark per table and figure of the paper's evaluation
// (Section IV). Each bench runs the corresponding harness experiment
// at BenchScale (reduced keys, trimmed sweeps — see EXPERIMENTS.md for
// the full-scale calibrated numbers) and logs the regenerated tables;
// run with -v to see them:
//
//	go test -bench=. -benchmem
//	go test -bench=Fig13 -v
//
// Results are memoized within the process, so b.N > 1 re-runs are
// nearly free and the reported ns/op is NOT the simulation cost — the
// interesting outputs are the logged tables and the custom metrics.

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"addrkv/internal/harness"
	"addrkv/internal/hashfn"
	"addrkv/internal/ycsb"
)

func runExperiment(b *testing.B, id string) []*harness.Table {
	b.Helper()
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := harness.BenchScale()
	var tables []*harness.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables = e.Run(sc)
	}
	b.StopTimer()
	for _, t := range tables {
		b.Log("\n" + t.Render())
	}
	return tables
}

// cell parses a numeric cell from a rendered table row.
func cell(tb *harness.Table, row, col int) float64 {
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTab1HWCost(b *testing.B) {
	tables := runExperiment(b, "tab1")
	last := tables[0].Rows[len(tables[0].Rows)-1]
	bits, _ := strconv.ParseFloat(last[1], 64)
	b.ReportMetric(bits, "hw-bits")
	if bits != 6694 {
		b.Fatalf("hardware cost %v bits, paper says 6694", bits)
	}
}

func BenchmarkFig01Breakdown(b *testing.B) {
	tables := runExperiment(b, "fig1")
	// Last row of the first table is the total addressing share.
	t0 := tables[0]
	share := cell(t0, len(t0.Rows)-1, 1)
	b.ReportMetric(share, "%addressing")
}

func BenchmarkFig11Redis(b *testing.B) {
	tables := runExperiment(b, "fig11")
	t0 := tables[0]
	avg := len(t0.Rows) - 1
	b.ReportMetric(cell(t0, avg, 1), "x-stlt")
	b.ReportMetric(cell(t0, avg, 2), "x-slb")
}

func BenchmarkFig12MissReduction(b *testing.B) {
	tables := runExperiment(b, "fig12")
	// zipf row, STLT TLB reduction.
	b.ReportMetric(cell(tables[0], 0, 1), "%tlb-reduction-stlt")
}

func BenchmarkTab5MissRates(b *testing.B) {
	tables := runExperiment(b, "tab5")
	b.ReportMetric(cell(tables[0], 0, 2), "%stlt-miss-zipf")
	b.ReportMetric(cell(tables[0], 0, 1), "%slb-miss-zipf")
}

func BenchmarkFig13Kernels(b *testing.B) {
	tables := runExperiment(b, "fig13")
	agg := tables[len(tables)-1]
	for _, row := range agg.Rows {
		name := strings.Fields(row[0])[0]
		v, _ := strconv.ParseFloat(row[1], 64)
		b.ReportMetric(v, "x-stlt-"+name)
	}
}

func BenchmarkFig14SizeSweep(b *testing.B) {
	tables := runExperiment(b, "fig14")
	t0 := tables[0]
	// Report the first app's smallest- and largest-table speedups to
	// expose the rise-then-flatten shape. Rows are grouped by app.
	var first, last int
	app := t0.Rows[0][0]
	for i, r := range t0.Rows {
		if r[0] != app {
			break
		}
		last = i
	}
	b.ReportMetric(cell(t0, first, 2), "x-smallest")
	b.ReportMetric(cell(t0, last, 2), "x-largest")
}

func BenchmarkFig15MissVsSize(b *testing.B) {
	tables := runExperiment(b, "fig15")
	t0 := tables[0]
	b.ReportMetric(cell(t0, 0, 2), "%miss-smallest")
}

func BenchmarkFig16TLBReduction(b *testing.B) {
	tables := runExperiment(b, "fig16")
	t0 := tables[0]
	b.ReportMetric(cell(t0, len(t0.Rows)-1, 2), "%tlb-reduction-largest")
}

func BenchmarkFig17Assoc(b *testing.B) {
	runExperiment(b, "fig17")
}

func BenchmarkFig18HashFns(b *testing.B) {
	tables := runExperiment(b, "fig18")
	t0 := tables[0]
	b.ReportMetric(cell(t0, len(t0.Rows)-1, 1), "%spread")
}

func BenchmarkFig19Breakdown(b *testing.B) {
	runExperiment(b, "fig19l")
}

func BenchmarkFig19Prefetch(b *testing.B) {
	tables := runExperiment(b, "fig19r")
	t0 := tables[0]
	avg := len(t0.Rows) - 1
	b.ReportMetric(cell(t0, avg, 1), "%stride-slowdown")
	b.ReportMetric(cell(t0, avg, 2), "%vldp-slowdown")
}

func BenchmarkExtShards(b *testing.B) {
	tables := runExperiment(b, "ext-shards")
	t0 := tables[0]
	last := len(t0.Rows) - 1
	b.ReportMetric(cell(t0, last, 3), "x-modeled")
	b.ReportMetric(cell(t0, last, 5), "x-real")
}

// BenchmarkClusterParallel drives a sharded System from parallel
// goroutines (RunParallel spawns GOMAXPROCS workers), measuring the
// real wall-clock op rate of the concurrent front-end — the number
// that should rise with -shards.
func BenchmarkClusterParallel(b *testing.B) {
	const keys = 20000
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sys, err := New(Options{Keys: keys, Shards: shards, Index: IndexChainHash, Mode: ModeSTLT})
			if err != nil {
				b.Fatal(err)
			}
			sys.Load(keys, 64)
			var nextSeed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := ycsb.NewGenerator(ycsb.Config{
					Keys: keys, ValueSize: 64, Dist: ycsb.Zipf,
					Seed: nextSeed.Add(1), SetFraction: 0.05,
				})
				var buf [ycsb.KeyLen]byte
				c := sys.Cluster()
				for pb.Next() {
					op := g.Next()
					if op.Type == ycsb.Set {
						c.Set(ycsb.KeyNameInto(buf[:], op.KeyID%keys), ycsb.Value(op.KeyID, 1, 64))
					} else {
						c.GetTouch(ycsb.KeyNameInto(buf[:], op.KeyID%keys))
					}
				}
			})
			b.StopTimer()
			rep := sys.Report()
			if rep.Ops != uint64(b.N) {
				b.Fatalf("lost ops under parallel drive: engine saw %d, bench ran %d", rep.Ops, b.N)
			}
		})
	}
}

// --- microbenchmarks of the core primitives (real wall-clock cost of
// the simulator itself, useful for keeping the harness fast) ---

// BenchmarkMicroSimulatedGet prices one simulated GET in host
// nanoseconds. The 20k leg fits the host's caches; the 200k-redis leg
// is the repository benchmark's sim-zipf shape (bench/model.go), whose
// simulated memory does not, and is the one that ranks a change the
// way the benchmark will. Both report the modeled cycles of the timed
// ops, so a change that moved a cycle shows beside its nanoseconds.
func BenchmarkMicroSimulatedGet(b *testing.B) {
	for _, leg := range []struct {
		name string
		opts Options
		warm int
	}{
		{"20k", Options{Keys: 20000, Index: IndexChainHash}, 0},
		{"200k-redis", Options{Keys: 200000, Shards: 1, Index: IndexChainHash, RedisLayer: true}, 200000},
	} {
		for _, mode := range []Mode{ModeBaseline, ModeSTLT} {
			b.Run(leg.name+"/"+string(mode), func(b *testing.B) {
				opts := leg.opts
				opts.Mode = mode
				sys, err := New(opts)
				if err != nil {
					b.Fatal(err)
				}
				sys.Load(opts.Keys, 64)
				g := ycsb.NewGenerator(ycsb.Config{Keys: opts.Keys, ValueSize: 64, Dist: ycsb.Zipf, Seed: 1})
				for i := 0; i < leg.warm; i++ {
					sys.Cluster().RunOp(g.Next(), 64)
				}
				sys.MarkMeasurement()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Cluster().RunOp(g.Next(), 64)
				}
				b.ReportMetric(float64(sys.Report().Stats.Machine.Cycles), "modeled-cycles")
			})
		}
	}
}

func BenchmarkMicroHashFunctions(b *testing.B) {
	key := []byte("user00000000000000001234")
	for _, f := range hashfn.All() {
		b.Run(f.Name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= f.Hash(key, 42)
			}
			_ = sink
		})
	}
}

func BenchmarkMicroYCSBNext(b *testing.B) {
	for _, d := range ycsb.Distributions() {
		b.Run(string(d), func(b *testing.B) {
			g := ycsb.NewGenerator(ycsb.Config{Keys: 1 << 20, ValueSize: 64, Dist: d, Seed: 1})
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

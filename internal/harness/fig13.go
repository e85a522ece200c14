package harness

import (
	"fmt"

	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: kernel-benchmark speedups (4 structures x 6 workloads)",
		Shape: "hash structures: SLB ~1.7x, STLT ~2.4x; trees: SLB ~6.5x, STLT up to ~11-13x; zipf/uniform gain more than latest",
		Scale: mainScale,
		Run:   runFig13,
	})
}

func fig13Kernels(sc Scale) []kv.IndexKind {
	if sc.Quick {
		return []kv.IndexKind{kv.KindDenseHash, kv.KindBTree}
	}
	return kv.IndexKinds()
}

func fig13Sizes(sc Scale) []int {
	if sc.Quick {
		return []int{128}
	}
	return []int{128, 256}
}

func runFig13(sc Scale) []*Table {
	var tables []*Table
	type agg struct {
		sum float64
		n   int
	}
	aggs := map[string]*agg{}
	add := func(k string, v float64) {
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
		}
		a.sum += v
		a.n++
	}

	for _, vs := range fig13Sizes(sc) {
		t := NewTable(fmt.Sprintf("Fig 13: kernel benchmark speedups, %dB records", vs),
			"benchmark", "workload", "STLT speedup", "SLB speedup")
		for _, kind := range fig13Kernels(sc) {
			for _, d := range []ycsb.Distribution{ycsb.Zipf, ycsb.Latest, ycsb.Uniform} {
				mk := func(mode kv.Mode) spec {
					return spec{mode: mode, index: kind, dist: d, valueSize: vs}
				}
				base := run(sc, mk(kv.ModeBaseline))
				stlt := run(sc, mk(kv.ModeSTLT))
				slbR := run(sc, mk(kv.ModeSLB))
				s1, s2 := speedup(base, stlt), speedup(base, slbR)
				t.AddRow(string(kind), string(d), s1, s2)
				class := "hash"
				if kind == kv.KindRBTree || kind == kv.KindBTree {
					class = "tree"
				}
				add(class+"/stlt", s1)
				add(class+"/slb", s2)
			}
		}
		tables = append(tables, t)
	}

	sum := NewTable("Fig 13 aggregate", "class", "STLT avg", "SLB avg", "paper (STLT/SLB)")
	if a, b := aggs["hash/stlt"], aggs["hash/slb"]; a != nil && b != nil {
		sum.AddRow("hash structures", a.sum/float64(a.n), b.sum/float64(b.n), "2.42 / 1.70")
	}
	if a, b := aggs["tree/stlt"], aggs["tree/slb"]; a != nil && b != nil {
		sum.AddRow("tree structures", a.sum/float64(a.n), b.sum/float64(b.n), "11.2 / 6.46")
	}
	tables = append(tables, sum)
	return tables
}

package harness

import (
	"fmt"

	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: Redis speedups from STLT and SLB across 9 workloads",
		Shape: "STLT averages ~1.38x (up to 1.4x) and beats SLB on every workload",
		Scale: redisScale,
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: TLB-miss and cache-miss reduction on Redis (128B values)",
		Shape: "STLT reduces TLB misses 27-31% and cache misses 5-12%; SLB -2.6..10% and -3..3.7%",
		Scale: redisScale,
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "tab5",
		Title: "Table V: STLT and SLB table miss rates by distribution",
		Shape: "zipf 1.75%/1.42%, latest 0.85%/0.30%, uniform 3.61%/7.47% (STLT/SLB); SLB needs 20x the space for it",
		Scale: mainScale,
		Run:   runTab5,
	})
}

var fig11Dists = []ycsb.Distribution{ycsb.Zipf, ycsb.Latest, ycsb.Uniform}
var fig11Sizes = []int{64, 128, 256}

func fig11Spec(dist ycsb.Distribution, valueSize int, mode kv.Mode) spec {
	return spec{
		mode:      mode,
		index:     kv.KindChainHash,
		redis:     true,
		dist:      dist,
		valueSize: valueSize,
	}
}

func runFig11(sc Scale) []*Table {
	t := NewTable("Fig 11: Redis speedups (STLT table = paper-equivalent 512MB, SLB = 10GB)",
		"workload", "STLT speedup", "SLB speedup", "STLT/SLB")
	var sumS, sumL float64
	var n int
	for _, d := range fig11Dists {
		for _, vs := range fig11Sizes {
			base := run(sc, fig11Spec(d, vs, kv.ModeBaseline))
			stlt := run(sc, fig11Spec(d, vs, kv.ModeSTLT))
			slbR := run(sc, fig11Spec(d, vs, kv.ModeSLB))
			s1 := speedup(base, stlt)
			s2 := speedup(base, slbR)
			t.AddRow(fmt.Sprintf("%s-%dB", d, vs), s1, s2, s1/s2)
			sumS += s1
			sumL += s2
			n++
		}
	}
	t.AddRow("AVERAGE", sumS/float64(n), sumL/float64(n), (sumS/float64(n))/(sumL/float64(n)))
	t.Note = "Paper: STLT avg 1.38x; STLT consistently above SLB by 23-73%."
	return []*Table{t}
}

func runFig12(sc Scale) []*Table {
	t := NewTable("Fig 12: TLB and cache miss reduction on Redis (128B values)",
		"distribution", "STLT TLB red. %", "SLB TLB red. %", "STLT cache red. %", "SLB cache red. %")
	for _, d := range fig11Dists {
		base := run(sc, fig11Spec(d, 128, kv.ModeBaseline))
		stlt := run(sc, fig11Spec(d, 128, kv.ModeSTLT))
		slbR := run(sc, fig11Spec(d, 128, kv.ModeSLB))

		bTLB := perOp(base.Stats.Machine.TLBMisses, base.Stats)
		bLLC := perOp(base.Stats.Machine.DRAMDemand, base.Stats)
		t.AddRow(string(d),
			100*reduction(bTLB, perOp(stlt.Stats.Machine.TLBMisses, stlt.Stats)),
			100*reduction(bTLB, perOp(slbR.Stats.Machine.TLBMisses, slbR.Stats)),
			100*reduction(bLLC, perOp(stlt.Stats.Machine.DRAMDemand, stlt.Stats)),
			100*reduction(bLLC, perOp(slbR.Stats.Machine.DRAMDemand, slbR.Stats)))
	}
	t.Note = "Paper: STLT TLB reduction 27-31%, SLB -2.6..10%; STLT cache 5-12%, SLB -3..3.7%."
	return []*Table{t}
}

func runTab5(sc Scale) []*Table {
	t := NewTable("Table V: table miss rates (Redis workloads, 64B values)",
		"distribution", "SLB miss %", "STLT miss %")
	for _, d := range fig11Dists {
		stlt := run(sc, fig11Spec(d, 64, kv.ModeSTLT))
		slbR := run(sc, fig11Spec(d, 64, kv.ModeSLB))
		t.AddRow(string(d), 100*slbR.Stats.SLB.MissRate(), 100*stlt.Stats.STLT.MissRate())
	}
	t.Note = "Paper: zipf 1.42/1.75, latest 0.30/0.85, uniform 7.47/3.61 (SLB/STLT) — SLB uses 20x the space yet only slightly lower zipf/latest miss rates, and is WORSE on uniform."
	return []*Table{t}
}

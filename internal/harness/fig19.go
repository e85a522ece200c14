package harness

import (
	"fmt"

	"addrkv/internal/kv"
)

func init() {
	register(Experiment{
		ID:    "fig19l",
		Title: "Figure 19 (left): STLT-SW / STLT-VA / STLT improvement over SLB",
		Shape: "STLT-SW < SLB < STLT-VA < STLT: the instructions beat software scanning slightly, and PTE caching provides the large remaining gain",
		Scale: mainScale,
		Run:   runFig19Left,
	})
	register(Experiment{
		ID:    "fig19r",
		Title: "Figure 19 (right): slowdown from LLC data prefetchers (no STLT)",
		Shape: "VLDP ~9.4% and stride ~17.7% average slowdown on these pointer-chasing workloads; TLB distance prefetching is ~neutral (accuracy <0.1%)",
		Scale: sweepScale,
		Run:   runFig19Right,
	})
}

func runFig19Left(sc Scale) []*Table {
	t := NewTable("Fig 19 (left): speedup over SLB by STLT configuration",
		"benchmark", "STLT-SW", "STLT-VA", "STLT")
	for _, kind := range fig13Kernels(sc) {
		mk := func(mode kv.Mode) result {
			return run(sc, spec{mode: mode, index: kind})
		}
		slbR := mk(kv.ModeSLB)
		t.AddRow(string(kind),
			slbR.CPO/mk(kv.ModeSTLTSW).CPO,
			slbR.CPO/mk(kv.ModeSTLTVA).CPO,
			slbR.CPO/mk(kv.ModeSTLT).CPO)
	}
	t.Note = "zipf, 64B values. Values >1 beat SLB. Paper: SW slightly below 1, VA slightly above, full STLT clearly above."
	return []*Table{t}
}

func runFig19Right(sc Scale) []*Table {
	apps := sweepApps(sc)
	t := NewTable("Fig 19 (right): performance vs no-prefetch baseline (no STLT)",
		"app", "stride slowdown %", "VLDP slowdown %", "TLB-distance delta %")
	var sSum, vSum float64
	for _, app := range apps {
		base := run(sc, spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis})
		stride := run(sc, spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis, prefetch: "stride"})
		vldp := run(sc, spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis, prefetch: "vldp"})
		tlbPf := run(sc, spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis, tlbPf: true})
		sPct := 100 * (stride.CPO/base.CPO - 1)
		vPct := 100 * (vldp.CPO/base.CPO - 1)
		dPct := 100 * (tlbPf.CPO/base.CPO - 1)
		t.AddRow(app.name, sPct, vPct, dPct)
		sSum += sPct
		vSum += vPct
	}
	n := float64(len(apps))
	t.AddRow("AVERAGE", sSum/n, vSum/n, "")

	aux := NewTable("Fig 19 (right) aux: prefetcher traffic on the VLDP runs",
		"app", "extra DRAM accesses x", "LLC miss reduction %", "mean DRAM latency x")
	for _, app := range apps {
		base := run(sc, spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis})
		vldp := run(sc, spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis, prefetch: "vldp"})
		bm, vm := base.Stats.Machine, vldp.Stats.Machine
		extra := float64(vm.DRAMAccesses) / max1(float64(bm.DRAMAccesses))
		missRed := 100 * reduction(perOp(bm.DRAMDemand, base.Stats), perOp(vm.DRAMDemand, vldp.Stats))
		latX := vm.MeanDRAMLatency / max1(bm.MeanDRAMLatency)
		aux.AddRow(app.name, extra, missRed, latX)
	}
	aux.Note = fmt.Sprintf("Paper: VLDP cuts LLC misses ~7.4%% but issues 1.54x the memory accesses, raising memory latency ~140%% and negating the gain (keys=%d).", sc.Keys)
	return []*Table{t, aux}
}

func max1(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

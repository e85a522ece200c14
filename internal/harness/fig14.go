package harness

import (
	"fmt"

	"addrkv/internal/kv"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: speedup sensitivity to STLT/SLB space overhead",
		Shape: "speedups rise steeply to ~256MB-equivalent then flatten; STLT beats SLB at equal space and plateaus higher",
		Scale: sweepScale,
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: table miss rate vs space",
		Shape: "STLT and SLB miss-rate curves nearly coincide, approaching ~0 by 512MB-equivalent — STLT's edge is faster translation, not hit rate",
		Scale: sweepScale,
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Figure 16: TLB-miss reduction vs STLT space",
		Shape: "TLB-miss reduction grows with table size and tracks the speedup curves",
		Scale: sweepScale,
		Run:   runFig16,
	})
}

type sweepApp struct {
	name  string
	index kv.IndexKind
	redis bool
}

func sweepApps(sc Scale) []sweepApp {
	if sc.Quick {
		return []sweepApp{
			{"dhash", kv.KindDenseHash, false},
			{"btree", kv.KindBTree, false},
		}
	}
	return []sweepApp{
		{"redis", kv.KindChainHash, true},
		{"umap", kv.KindChainHash, false},
		{"dhash", kv.KindDenseHash, false},
		{"map", kv.KindRBTree, false},
		{"btree", kv.KindBTree, false},
	}
}

// sweepSpecs returns (baseline, stlt, slb) specs for one app and size
// label. SLB is sized for the same *space* (2.5x fewer entries).
func sweepSpecs(sc Scale, app sweepApp, mb int) (spec, spec, spec) {
	base := spec{mode: kv.ModeBaseline, index: app.index, redis: app.redis}
	stlt := base
	stlt.mode = kv.ModeSTLT
	stlt.stltRows = stltRowsFor(mb, sc.Keys, 4)
	stlt.stltWays = 4
	slbSp := base
	slbSp.mode = kv.ModeSLB
	slbSp.slbEntries = slbEntriesForSpace(mb, sc.Keys)
	return base, stlt, slbSp
}

func runFig14(sc Scale) []*Table {
	t := NewTable("Fig 14: speedup vs space overhead (labels are the paper's 10M-key-equivalent sizes)",
		"app", "size", "STLT speedup", "SLB speedup (same space)")
	for _, app := range sweepApps(sc) {
		for _, mb := range sizeLabels(sc) {
			baseSp, stltSp, slbSp := sweepSpecs(sc, app, mb)
			base := run(sc, baseSp)
			t.AddRow(app.name, mbLabelString(mb),
				speedup(base, run(sc, stltSp)),
				speedup(base, run(sc, slbSp)))
		}
	}
	t.Note = "Paper: fast rise 16->256MB, flattening beyond; STLT plateaus above SLB."
	return []*Table{t}
}

func runFig15(sc Scale) []*Table {
	t := NewTable("Fig 15: table miss rates vs space",
		"app", "size", "STLT miss %", "SLB miss %")
	for _, app := range sweepApps(sc) {
		for _, mb := range sizeLabels(sc) {
			_, stltSp, slbSp := sweepSpecs(sc, app, mb)
			stlt := run(sc, stltSp)
			slbR := run(sc, slbSp)
			t.AddRow(app.name, mbLabelString(mb),
				100*stlt.Stats.STLT.MissRate(),
				100*slbR.Stats.SLB.MissRate())
		}
	}
	t.Note = "Paper: the curves nearly coincide and approach 0 by 512MB."
	return []*Table{t}
}

func runFig16(sc Scale) []*Table {
	t := NewTable("Fig 16: TLB-miss reduction vs STLT space",
		"app", "size", "TLB miss reduction %", "speedup")
	for _, app := range sweepApps(sc) {
		for _, mb := range sizeLabels(sc) {
			baseSp, stltSp, _ := sweepSpecs(sc, app, mb)
			base := run(sc, baseSp)
			stlt := run(sc, stltSp)
			bTLB := perOp(base.Stats.Machine.TLBMisses, base.Stats)
			sTLB := perOp(stlt.Stats.Machine.TLBMisses, stlt.Stats)
			t.AddRow(app.name, mbLabelString(mb),
				100*reduction(bTLB, sTLB), speedup(base, stlt))
		}
	}
	t.Note = fmt.Sprintf("Paper: reduction correlates positively with speedup across sizes and apps (keys=%d).", sc.Keys)
	return []*Table{t}
}

package harness

import (
	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

// Extension experiments: design points the paper discusses but does
// not evaluate (Sections III-B and V). They are not paper artifacts;
// they extend the reproduction along the axes the authors call out.

func init() {
	register(Experiment{
		ID:    "ext-hwhash",
		Title: "Extension: hardware hash unit on the STLT fast path (Section III-B)",
		Shape: "a fixed ~2-cycle hardware hash recovers most of sipHash's speedup deficit while keeping its conflict resistance; gains over xxh3 are small because xxh3 is already cheap",
		Scale: mainScale,
		Run:   runExtHWHash,
	})
	register(Experiment{
		ID:    "ext-hugepage",
		Title: "Extension: huge-page-reach TLBs vs the STLT (Section V discussion)",
		Shape: "emulated 2MB-page TLB reach removes most page walks but none of the traversal; the STLT still wins because addressing is more than translation",
		Scale: mainScale,
		Run:   runExtHugePage,
	})
}

func runExtHWHash(sc Scale) []*Table {
	t := NewTable("Extension: fast-path hash in hardware vs software",
		"fast hash", "unit", "speedup vs baseline", "STLT miss %")
	base := run(sc, spec{mode: kv.ModeBaseline, index: kv.KindChainHash, redis: true})
	for _, cfg := range []struct {
		name string
		hw   bool
	}{
		{"xxh3", false},
		{"xxh3", true},
		{"sipHash", false},
		{"sipHash", true},
	} {
		sp := spec{
			mode:     kv.ModeSTLT,
			index:    kv.KindChainHash,
			redis:    true,
			fastHash: cfg.name,
			hwHash:   cfg.hw,
		}
		r := run(sc, sp)
		unit := "software"
		if cfg.hw {
			unit = "hardware"
		}
		t.AddRow(cfg.name, unit, speedup(base, r), 100*r.Stats.STLT.MissRate())
	}
	t.Note = "Hardware hashing fixes the cost at ~2 cycles regardless of function, so the choice can be made purely on distribution quality."
	return []*Table{t}
}

func runExtHugePage(sc Scale) []*Table {
	t := NewTable("Extension: huge-page TLB reach vs address-centric acceleration",
		"config", "cycles/op", "speedup vs 4KB baseline", "walks/op")
	for _, d := range []ycsb.Distribution{ycsb.Zipf, ycsb.Uniform} {
		base := run(sc, spec{mode: kv.ModeBaseline, index: kv.KindRBTree, dist: d})
		huge := run(sc, spec{mode: kv.ModeBaseline, index: kv.KindRBTree, dist: d, hugeTLB: true})
		stlt := run(sc, spec{mode: kv.ModeSTLT, index: kv.KindRBTree, dist: d})
		both := run(sc, spec{mode: kv.ModeSTLT, index: kv.KindRBTree, dist: d, hugeTLB: true})
		row := func(name string, r result) {
			t.AddRow(name+" ("+string(d)+")", r.CPO, speedup(base, r),
				perOp(r.Stats.Machine.PageWalks, r.Stats))
		}
		row("baseline 4KB", base)
		row("baseline hugepage-reach", huge)
		row("STLT 4KB", stlt)
		row("STLT + hugepage-reach", both)
	}
	t.Note = "Huge pages emulated as 512x TLB reach (2MB pages). They cut translation only; the STLT also removes the traversal, so it wins even against huge pages — and composes with them. The paper's Section V notes Redis/MongoDB in fact recommend *disabling* huge pages for latency reasons."
	return []*Table{t}
}

func init() {
	register(Experiment{
		ID:    "ext-skiplist",
		Title: "Extension: STLT on a Redis-zset-style skip list",
		Shape: "the skip list behaves like the other ordered structures: large baseline addressing cost, tree-class speedups from the STLT",
		Scale: mainScale,
		Run:   runExtSkipList,
	})
}

func runExtSkipList(sc Scale) []*Table {
	t := NewTable("Extension: skip list vs the Table II ordered structures (zipf, 64B)",
		"index", "baseline cycles/op", "STLT speedup", "SLB speedup")
	for _, kind := range []kv.IndexKind{kv.KindSkipList, kv.KindRBTree, kv.KindBTree} {
		base := run(sc, spec{mode: kv.ModeBaseline, index: kind})
		stlt := run(sc, spec{mode: kv.ModeSTLT, index: kind})
		slbR := run(sc, spec{mode: kv.ModeSLB, index: kind})
		t.AddRow(string(kind), base.CPO, speedup(base, stlt), speedup(base, slbR))
	}
	t.Note = "Six added lines of engine code (the paper reports the same for its kernels): the STLT needs only get(key)->record semantics."
	return []*Table{t}
}

package harness

import (
	"addrkv/internal/hashfn"
	"addrkv/internal/kv"
)

func init() {
	register(Experiment{
		ID:    "fig18",
		Title: "Figure 18: fast-path hash function sensitivity on Redis",
		Shape: "up to ~19% speedup spread; sipHash has the LOWEST miss rate yet the LOWEST speedup (cost dominates); simple hashes win despite more conflicts",
		Scale: mainScale,
		Run:   runFig18,
	})
}

func runFig18(sc Scale) []*Table {
	base := run(sc, spec{mode: kv.ModeBaseline, index: kv.KindChainHash, redis: true})

	t := NewTable("Fig 18: STLT speedup and miss rate by fast-path hash (Redis, zipf, 64B)",
		"fast hash", "speedup", "STLT miss %", "hash cost (cycles/24B key)")
	var best, worst float64
	for i, f := range hashfn.All() {
		sp := spec{mode: kv.ModeSTLT, index: kv.KindChainHash, redis: true, fastHash: f.Name}
		r := run(sc, sp)
		s := speedup(base, r)
		t.AddRow(f.Name, s, 100*r.Stats.STLT.MissRate(), uint64(f.Cost(24)))
		if i == 0 {
			best, worst = s, s
		}
		if s > best {
			best = s
		}
		if s < worst {
			worst = s
		}
	}
	t.AddRow("spread (max/min - 1)", 100*(best/worst-1), "", "")
	t.Note = "Paper: up to 19.4% variation; slow path keeps Redis's own sipHash in all configs."

	// At the default (512MB-equivalent) table size misses are almost
	// purely compulsory, so distribution quality barely shows. A
	// capacity-constrained table (32MB-equivalent) exposes the
	// conflict behaviour the paper's Figure 18(b) discusses.
	small := NewTable("Fig 18 (aux): miss rates under capacity pressure (32MB-equivalent STLT)",
		"fast hash", "STLT miss %", "speedup")
	rows := stltRowsFor(32, sc.Keys, 4)
	for _, f := range hashfn.All() {
		sp := spec{mode: kv.ModeSTLT, index: kv.KindChainHash, redis: true,
			fastHash: f.Name, stltRows: rows, stltWays: 4}
		r := run(sc, sp)
		small.AddRow(f.Name, 100*r.Stats.STLT.MissRate(), speedup(base, r))
	}
	small.Note = "Paper: sipHash's better-distributed integers give the lowest miss rate, yet its cost still makes it the slowest choice."
	return []*Table{t, small}
}

package harness

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/kv"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1 (right): breakdown of Redis execution time",
		Shape: "hashing + indexing traversal + address translation exceed 50% of Redis data-retrieval time",
		Scale: redisScale,
		Run:   runFig1,
	})
}

func runFig1(sc Scale) []*Table {
	r := run(sc, spec{mode: kv.ModeBaseline, index: kv.KindChainHash, redis: true})
	st := r.Stats.Machine

	total := float64(st.Cycles)
	pct := func(c arch.CostCategory) float64 {
		return 100 * float64(st.ByCat[c]) / total
	}

	t := NewTable("Fig 1 (right): Redis execution time breakdown (zipf, 64B values)",
		"component", "share %")
	t.Note = "Baseline Redis-layer engine, SipHash dict. Paper: addressing (hash+translation+lookup) >50%."
	hash := pct(arch.CatHash)
	trav := pct(arch.CatTraverse)
	xlat := pct(arch.CatTranslate)
	data := pct(arch.CatData)
	other := pct(arch.CatOther)
	t.AddRow("key hashing", hash)
	t.AddRow("index traversal (key->VA)", trav)
	t.AddRow("address translation (VA->PA)", xlat)
	t.AddRow("record data access", data)
	t.AddRow("other (parse/validate/reply)", other)
	t.AddRow("TOTAL addressing (hash+traverse+translate)", hash+trav+xlat)

	sum := NewTable("Fig 1 check", "metric", "value")
	sum.AddRow("addressing share", fmt.Sprintf("%.1f%%", hash+trav+xlat))
	sum.AddRow("paper target", ">50%")
	return []*Table{t, sum}
}

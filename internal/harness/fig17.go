package harness

import (
	"fmt"

	"addrkv/internal/kv"
)

func init() {
	register(Experiment{
		ID:    "fig17",
		Title: "Figure 17: STLT associativity sensitivity (1/2/4/8-way)",
		Shape: "1-way competitive when the table is small, 8-way competitive mid-size but pays scan overhead, 4-way the stablest overall",
		Scale: sweepScale,
		Run:   runFig17,
	})
}

func fig17SizesMB(sc Scale) []int {
	if sc.Quick {
		return []int{64, 512}
	}
	return []int{16, 64, 256, 1024}
}

func runFig17(sc Scale) []*Table {
	kernels := fig13Kernels(sc)
	ways := []int{1, 2, 4, 8}

	t := NewTable("Fig 17: speedup by STLT associativity",
		append([]string{"benchmark", "size"}, "1-way", "2-way", "4-way", "8-way")...)
	miss := NewTable("Fig 17 (aux): STLT miss % by associativity",
		append([]string{"benchmark", "size"}, "1-way", "2-way", "4-way", "8-way")...)

	for _, kind := range kernels {
		base := run(sc, spec{mode: kv.ModeBaseline, index: kind})
		for _, mb := range fig17SizesMB(sc) {
			row := []any{string(kind), mbLabelString(mb)}
			missRow := []any{string(kind), mbLabelString(mb)}
			for _, w := range ways {
				sp := spec{
					mode:     kv.ModeSTLT,
					index:    kind,
					stltWays: w,
					stltRows: stltRowsFor(mb, sc.Keys, w),
				}
				r := run(sc, sp)
				row = append(row, speedup(base, r))
				missRow = append(missRow, 100*r.Stats.STLT.MissRate())
			}
			t.AddRow(row...)
			miss.AddRow(missRow...)
		}
	}
	t.Note = fmt.Sprintf("zipf, 64B values, keys=%d. Paper: 4-way is first or second best everywhere.", sc.Keys)
	return []*Table{t, miss}
}

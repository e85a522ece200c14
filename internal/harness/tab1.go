package harness

import (
	"fmt"

	"addrkv/internal/core"
)

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "Table I: on-chip hardware space overhead of the STLT design",
		Shape: "6,694 bits (837 bytes) total — computed from component geometry, matching the paper exactly",
		Scale: mainScale,
		Run:   runTab1,
	})
}

func runTab1(Scale) []*Table {
	t := NewTable("Table I: hardware space overhead for STLT",
		"component", "cost (bits)", "detail")
	for _, c := range core.HWCost() {
		t.AddRow(c.Component, c.Bits, c.Detail)
	}
	total := core.HWCostTotalBits()
	t.AddRow("TOTAL", total, fmt.Sprintf("%d bytes", (total+7)/8))
	t.Note = "Paper: 837 bytes (6,694 bits)."
	return []*Table{t}
}

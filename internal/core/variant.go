package core

import "addrkv/internal/arch"

// Variant selects one of the three STLT configurations compared in
// Figure 19 (left) of the paper.
type Variant uint8

const (
	// VariantFull is the complete design: hardware instructions,
	// VA+PTE rows, STB fill on hit (skips page walks).
	VariantFull Variant = iota
	// VariantVAOnly ("STLT-VA") uses the hardware instructions but
	// retains only virtual addresses: hits do not fill the STB, so
	// the record access still pays TLB misses and page walks.
	VariantVAOnly
	// VariantSoftware ("STLT-SW") is a software-only table: the set
	// scan runs as ordinary loads through the *virtual* address path
	// (paying its own translations and branchy compare loops), and
	// insertions are ordinary stores.
	VariantSoftware
)

func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "STLT"
	case VariantVAOnly:
		return "STLT-VA"
	case VariantSoftware:
		return "STLT-SW"
	}
	return "variant(?)"
}

// opCost is what an STLT operation computes before its set read: the
// STU instruction's latency hw, or the software table's set-scan loop,
// the cost the hardware eliminates ("the hardware instructions avoid
// frequent branch mispredictions and enable concurrent operations on
// STLT set scanning").
func (t *STLT) opCost(hw arch.Cycles) arch.Cycles {
	if t.Variant == VariantSoftware {
		return arch.Cycles(14 + 4*t.ways)
	}
	return hw
}

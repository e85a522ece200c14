// Package arch holds the shared architectural vocabulary of the
// simulator: address types, page geometry, memory-access kinds, and the
// timing parameters of the simulated machine (Table III of the paper).
//
// Every other simulator package speaks in these types, so arch sits at
// the bottom of the dependency graph and imports nothing outside the
// standard library.
package arch

import "fmt"

// Addr is a simulated address (virtual or physical). The simulated
// machine is 64-bit x86-like with 48-bit canonical virtual addresses
// and 4 KB pages.
type Addr uint64

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the simulated page size in bytes (Table III: 4 KB).
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits.
	PageMask = PageSize - 1

	// LineShift is log2 of the cache line size.
	LineShift = 6
	// LineSize is the cache line size in bytes (Table III: 64 B).
	LineSize = 1 << LineShift
	// LineMask masks the offset-within-line bits.
	LineMask = LineSize - 1

	// VABits is the number of significant virtual-address bits.
	VABits = 48
)

// Page returns the virtual/physical page number of a.
func (a Addr) Page() uint64 { return uint64(a) >> PageShift }

// PageBase returns the address of the start of a's page.
func (a Addr) PageBase() Addr { return a &^ Addr(PageMask) }

// Line returns the cache-line number of a.
func (a Addr) Line() uint64 { return uint64(a) >> LineShift }

// Offset returns the offset of a within its page.
func (a Addr) Offset() uint64 { return uint64(a) & PageMask }

func (a Addr) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Cycles counts simulated processor cycles. The simulated clock is
// 2.66 GHz (Table III), so 1 ns ≈ 2.66 cycles.
type Cycles uint64

// AccessKind classifies a simulated memory access so the statistics can
// attribute time the way Figure 1 of the paper does.
type AccessKind uint8

const (
	// KindOther is unattributed traffic (command buffers, metadata).
	KindOther AccessKind = iota
	// KindIndex is traffic from traversing an indexing structure
	// (hash buckets, chain entries, tree nodes).
	KindIndex
	// KindRecord is traffic touching the key-value record itself.
	KindRecord
	// KindPageTable is page-table-entry traffic from walks.
	KindPageTable
	// KindSTLT is traffic reading or writing STLT rows.
	KindSTLT
	// KindSLB is traffic on the SLB baseline's software tables.
	KindSLB
	numAccessKinds
)

// NumAccessKinds is the number of distinct AccessKind values.
const NumAccessKinds = int(numAccessKinds)

var kindNames = [...]string{
	KindOther:     "other",
	KindIndex:     "index",
	KindRecord:    "record",
	KindPageTable: "pagetable",
	KindSTLT:      "stlt",
	KindSLB:       "slb",
}

func (k AccessKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// CostCategory attributes *cycles* (memory or compute) to a phase of a
// key-value operation, mirroring the execution-time breakdown in
// Figure 1 (right) of the paper.
type CostCategory uint8

const (
	// CatOther is command parsing, validation, reply building, and
	// all other non-addressing work.
	CatOther CostCategory = iota
	// CatHash is time spent hashing keys.
	CatHash
	// CatTraverse is time traversing the indexing structure
	// (key-to-VA translation in the paper's terms).
	CatTraverse
	// CatTranslate is virtual-to-physical translation time: TLB
	// lookups, STB lookups, and page-table walks.
	CatTranslate
	// CatData is time accessing the record data itself.
	CatData
	// CatSTLT is time executing loadVA/insertSTLT (the fast path).
	CatSTLT
	numCostCategories
)

// NumCostCategories is the number of distinct CostCategory values.
const NumCostCategories = int(numCostCategories)

var catNames = [...]string{
	CatOther:     "other",
	CatHash:      "hash",
	CatTraverse:  "traverse",
	CatTranslate: "translate",
	CatData:      "data",
	CatSTLT:      "stlt",
}

func (c CostCategory) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

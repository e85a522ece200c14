package core

import (
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/cpu"
)

// SyscallCost is the modeled round-trip cost of an STLT system call
// (mode switch + kernel work excluding the table clear, which is
// charged separately).
const SyscallCost arch.Cycles = 1200

// OS models the kernel side of the design: the STLT system calls
// (Section III-F), the flush_tlb_* instrumentation that maintains the
// IPB (Section III-D1), and process context switches.
//
// The OS owns at most one STLT per process ("Every process can have at
// most one STLT").
type OS struct {
	m *cpu.Machine

	stlt *STLT

	// invalidatedVAs is the kernel-space array mirroring the IPB: "the
	// kernel function records with a kernel-space array the virtual
	// address associated with the PTE to invalidate". It is part of
	// the process context; on context-switch-in its contents are
	// re-inserted into the IPB.
	invalidatedVAs []uint64

	// Invalidations counts page-translation invalidations observed.
	Invalidations uint64
	// ContextSwitches counts simulated context switch round trips.
	ContextSwitches uint64
}

// NewOS wires an OS model to a machine, hooking the address space's
// invalidation callback to the IPB maintenance path.
func NewOS(m *cpu.Machine) *OS {
	os := &OS{m: m}
	m.AS.OnInvalidate = os.flushTLBPage
	return os
}

// Machine returns the machine this OS manages.
func (o *OS) Machine() *cpu.Machine { return o.m }

// STLTAlloc implements the STLTalloc(n) system call: allocate a
// physically contiguous, page-aligned table of rows×ways geometry in
// kernel memory, update CR_S, and return the table handle.
func (o *OS) STLTAlloc(rows, ways int) (*STLT, error) {
	if o.stlt != nil {
		return nil, fmt.Errorf("core: process already has an STLT (at most one per process)")
	}
	if err := validateGeometry(rows, ways); err != nil {
		return nil, err
	}
	va, pa := o.m.AS.AllocKernel(rows * RowSize)
	t := &STLT{
		m:      o.m,
		os:     o,
		crs:    CRS{BasePA: pa, Rows: rows},
		baseVA: va,
		ways:   ways,
		sets:   rows / ways,
		rng:    0x9E3779B97F4A7C15,
	}
	o.stlt = t
	o.m.Compute(SyscallCost, arch.CatOther)
	return t, nil
}

// STLTFree implements STLTfree(): release the table.
func (o *OS) STLTFree() error {
	if o.stlt == nil {
		return fmt.Errorf("core: STLTfree without an STLT")
	}
	o.m.AS.FreeKernel(o.stlt.baseVA, o.stlt.SizeBytes())
	o.stlt = nil
	o.m.Compute(SyscallCost, arch.CatOther)
	return nil
}

// flushTLBPage is the modified flush_tlb_* path of Section III-D1. It
// runs before any page-table update that invalidates pageVA's
// translation: invalidate the TLBs and STB, then record the page in
// the IPB (clearing + scrubbing the STLT when the IPB is full).
func (o *OS) flushTLBPage(pageVA arch.Addr) {
	o.Invalidations++
	vpn := pageVA.Page()
	o.m.TLBs.InvalidatePage(vpn) // invlpg
	o.m.STB.InvalidatePage(vpn)
	if o.stlt == nil {
		return
	}
	// Instruction 3: check IPB capacity.
	if o.m.IPB.Full() {
		// Instruction 2 + STLT scrub; the kernel array is drained
		// because the table is now coherent.
		o.m.IPB.Clear()
		o.stlt.scrub()
		o.invalidatedVAs = o.invalidatedVAs[:0]
	}
	// Instruction 1: insert into IPB; mirror in the kernel array.
	o.m.IPB.Insert(vpn)
	o.invalidatedVAs = append(o.invalidatedVAs, vpn)
}

// ContextSwitch simulates the process being descheduled and later
// rescheduled: on the way out the OS clears the IPB (without updating
// the STLT); on the way in it re-inserts the kernel array's VAs. If
// the retained set no longer fits the IPB, the STLT is scrubbed and
// the backlog dropped, restoring coherence.
func (o *OS) ContextSwitch() {
	o.ContextSwitches++
	// Switch out.
	o.m.IPB.Clear()
	o.m.STB.Clear()
	o.m.TLBs.Flush() // the new process gets the TLB; ours refills on return
	// ... another process runs ...
	// Switch in: replay the retained invalidations.
	if o.stlt != nil && len(o.invalidatedVAs) > o.m.IPB.Len() {
		o.stlt.scrub()
		o.invalidatedVAs = o.invalidatedVAs[:0]
	}
	for _, vpn := range o.invalidatedVAs {
		o.m.IPB.Insert(vpn)
	}
	o.m.Compute(2*SyscallCost, arch.CatOther)
}

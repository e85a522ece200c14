package kv

import (
	"addrkv/internal/arch"
	"addrkv/internal/core"
	"addrkv/internal/cpu"
	"addrkv/internal/hashfn"
	"addrkv/internal/slb"
)

// fastPath is the accelerator in front of the index: the STLT in any
// Figure 19 variant, or the SLB. The engine calls it at the points of
// the paper's coherence protocol (Section III-F): probe before the index
// walk, fill after a slow-path hit, refresh when a SET moves a record,
// forget when a key is removed. A nil fastPath is the baseline.
type fastPath interface {
	// probe returns the record VA held for key (0 on a miss), for the
	// caller to validate, and the fast-path hash that fill reuses.
	probe(key []byte) (va arch.Addr, h uint64)
	// falseHit reports that validation rejected probe's VA.
	falseHit(key []byte)
	// fill records that the index walk found key at va.
	fill(key []byte, h uint64, va arch.Addr)
	// moved refreshes key's entry after its record moved to va, and
	// reports whether the entry now points there: the STLT re-inserts
	// its row, the SLB only drops its entry.
	moved(key []byte, va arch.Addr) bool
	// forget drops key's entry.
	forget(key []byte)
	// stats copies the counters into s; resetStats zeroes them.
	stats(s *Stats)
	resetStats()
}

// HWHashLatency is the modeled latency of a hardware hash unit
// (pipelined; a couple of cycles to produce the integer).
const HWHashLatency arch.Cycles = 2

// stltPath drives the STLT with the integer the engine's fast hash
// makes of a key, the input loadVA and insertSTLT take.
type stltPath struct {
	t    *core.STLT
	m    *cpu.Machine
	hash hashfn.Func
	seed uint64
	hw   bool // Config.FastHashHW
}

// integer computes the fast-path integer, charging its cost.
func (p *stltPath) integer(key []byte) uint64 {
	if p.hw {
		p.m.Compute(HWHashLatency, arch.CatHash)
	} else {
		p.m.Compute(p.hash.Cost(len(key)), arch.CatHash)
	}
	return p.hash.Hash(key, p.seed)
}

func (p *stltPath) probe(key []byte) (arch.Addr, uint64) {
	h := p.integer(key)
	return p.t.LoadVA(h), h
}

func (p *stltPath) falseHit([]byte) { p.t.ReportFalseHit() }

func (p *stltPath) fill(_ []byte, h uint64, va arch.Addr) { p.t.InsertSTLT(h, va) }

func (p *stltPath) moved(key []byte, va arch.Addr) bool {
	p.t.InsertSTLT(p.integer(key), va)
	return true
}

func (p *stltPath) forget(key []byte) { p.t.Invalidate(p.integer(key)) }

func (p *stltPath) stats(s *Stats) { s.STLT = p.t.Stats }

func (p *stltPath) resetStats() { p.t.Stats = core.Stats{} }

// slbPath is the SLB, which hashes keys itself: Lookup charges the hash
// and OnMiss recomputes it functionally, so no hash crosses the seam.
type slbPath struct{ s *slb.SLB }

func (p slbPath) probe(key []byte) (arch.Addr, uint64) {
	va, _ := p.s.Lookup(key)
	return va, 0
}

func (p slbPath) falseHit(key []byte) { p.s.ReportFalseHit(key) }

func (p slbPath) fill(key []byte, _ uint64, va arch.Addr) { p.s.OnMiss(key, va) }

func (p slbPath) moved(key []byte, _ arch.Addr) bool {
	p.s.Invalidate(key)
	return false
}

func (p slbPath) forget(key []byte) { p.s.Invalidate(key) }

func (p slbPath) stats(s *Stats) { s.SLB = p.s.Stats }

func (p slbPath) resetStats() { p.s.Stats = slb.Stats{} }

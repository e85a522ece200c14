package cache

import (
	"math"

	"addrkv/internal/arch"
)

// DRAM models main memory with an unloaded latency plus a bandwidth
// contention queue. Pressure rises by one unit per access and decays
// *with simulated time* (half-life pressureWindow cycles), so a
// configuration that issues more accesses per unit time — e.g. an
// inaccurate prefetcher — raises the effective latency of everyone's
// demand accesses. This reproduces the Section IV-F result that
// VLDP's 1.54x additional memory accesses raise memory access latency
// by ~140% and negate its cache-miss reduction.
//
// Now is the simulated-clock source; if nil, pressure decays per
// access (a degenerate mode used only by unit tests that have no
// clock).
type DRAM struct {
	Base         arch.Cycles
	QueuePenalty arch.Cycles
	QueueMax     arch.Cycles

	// Now returns the current simulated cycle; wired by the machine.
	Now func() arch.Cycles

	decayPerAccess float64
	pressure       float64
	lastAt         arch.Cycles

	// Accesses counts all DRAM accesses (demand + prefetch + writeback).
	Accesses uint64
	// Writebacks counts dirty-eviction drains.
	Writebacks uint64
	// DemandAccesses counts only demand traffic.
	DemandAccesses uint64
	// TotalDemandLatency accumulates effective latency of demand
	// accesses, for mean-latency reporting.
	TotalDemandLatency arch.Cycles
}

// pressureWindow is the half-life of queue pressure in cycles.
const pressureWindow = 1500

// decayTable[dt] is the factor pressure decays by over dt cycles,
// computed once with the expression decay uses for longer gaps, so a
// table read and a computed factor are the same float64.
var decayTable = func() (t [4096]float64) {
	for dt := range t {
		t[dt] = math.Exp2(-float64(dt) / pressureWindow)
	}
	return t
}()

// decay returns the factor pressure decays by over dt cycles.
func decay(dt arch.Cycles) float64 {
	if dt < arch.Cycles(len(decayTable)) {
		return decayTable[dt]
	}
	return math.Exp2(-float64(dt) / pressureWindow)
}

// NewDRAM builds a DRAM model from machine parameters.
func NewDRAM(p arch.MachineParams) *DRAM {
	window := p.DRAMQueueWindow
	if window <= 0 {
		window = 64
	}
	return &DRAM{
		Base:           p.DRAMLatency,
		QueuePenalty:   p.DRAMQueuePenalty,
		QueueMax:       p.DRAMQueueMax,
		decayPerAccess: 1 - 1/float64(window),
	}
}

// settle decays pressure for the time elapsed since the last access.
func (d *DRAM) settle() {
	if d.Now == nil {
		d.pressure *= d.decayPerAccess
		return
	}
	now := d.Now()
	if now < d.lastAt {
		// The simulated clock was reset (measurement mark): re-anchor
		// without decaying.
		d.lastAt = now
		return
	}
	if now > d.lastAt {
		d.pressure *= decay(now - d.lastAt)
		d.lastAt = now
	}
}

func (d *DRAM) latency() arch.Cycles {
	extra := arch.Cycles(float64(d.QueuePenalty) * d.pressure)
	if extra > d.QueueMax {
		extra = d.QueueMax
	}
	return d.Base + extra
}

// Demand performs a demand access and returns its effective latency.
func (d *DRAM) Demand() arch.Cycles {
	d.settle()
	l := d.latency()
	d.Accesses++
	d.DemandAccesses++
	d.TotalDemandLatency += l
	d.pressure++
	return l
}

// Prefetch performs a prefetch access. Its latency is off the critical
// path, but it still consumes bandwidth (adds pressure).
func (d *DRAM) Prefetch() {
	d.settle()
	d.Accesses++
	d.pressure++
}

// Writeback drains a dirty evicted line to memory. Like prefetches it
// is off the critical path but consumes bandwidth.
func (d *DRAM) Writeback() {
	d.settle()
	d.Accesses++
	d.Writebacks++
	d.pressure++
}

// MeanDemandLatency returns the average effective demand latency.
func (d *DRAM) MeanDemandLatency() float64 {
	if d.DemandAccesses == 0 {
		return 0
	}
	return float64(d.TotalDemandLatency) / float64(d.DemandAccesses)
}

// ResetStats clears counters but keeps queue pressure.
func (d *DRAM) ResetStats() {
	d.Accesses, d.DemandAccesses, d.TotalDemandLatency, d.Writebacks = 0, 0, 0, 0
}

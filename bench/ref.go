package main

import (
	"math"
	"time"
)

// The reference host is a few cores of a shared machine. What its
// neighbours do moves every host-time number here by tens of percent, in
// regimes that last from a fraction of a second to minutes: longer than a
// run, so no statistic over one run's slices removes them. A yardstick
// read alongside does.
//
// The yardstick is two loops that belong to the benchmark and that no
// change to the repository can speed up: a chain of dependent shifts and
// xors, which runs at the core's clock, and a chain of dependent loads
// that visits every cache line of refBytes once, which runs at the
// latency of wherever the neighbours have left those lines. The host's
// speed is a weighted geometric mean of the two rates, each over its
// rate on the reference host on a quiet day, and every host-time metric
// is reported at speed 1: a time is multiplied by the speed read beside
// it, a rate divided by it.
//
// The weights are the slopes of a fit, over every slice of 32 runs of the
// four workloads on a day the host's speed ranged over 2:1, of the log of
// throughput and latency on the logs of the two rates. They came out
// alike for all four workloads and sum to more than 1: when the host is
// contended, a server or a simulator loses more than either loop does.

const (
	// refBytes is larger than a core's private caches and much smaller
	// than the shared one.
	refBytes = 8 << 20
	// refLine is the cache line size; the load chain uses one word of each.
	refLine = 64
	// refClockDur is how long the shift chain runs in one reading. The
	// load chain runs once around, some 20 ms.
	refClockDur = 5 * time.Millisecond
	// refDur is about how long one reading takes; a window is planned
	// with it.
	refDur = 25 * time.Millisecond

	refClockNominal = 5.3e8 // shift-xor rounds per second
	refLoadNominal  = 7.0e6 // loads per second
	refClockWeight  = 0.6
	refLoadWeight   = 0.8
)

// refChain holds one random cycle through the lines of refBytes:
// refChain[i] is the index of the next word to load.
var refChain []uint32

// refSink keeps the loops' results live.
var refSink uint64

// refInit builds the chain. It is outside every metric: it is the
// ruler, not the system.
func refInit() {
	const stride = refLine / 4
	lines := refBytes / refLine
	order := make([]uint32, lines)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := lines - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	refChain = make([]uint32, refBytes/4)
	for i, line := range order {
		refChain[line*stride] = order[(i+1)%lines] * stride
	}
}

// refRead takes one reading of the yardstick and returns the host's
// speed, 1 on the reference host on a quiet day.
func refRead() float64 {
	if refChain == nil {
		refInit()
	}

	const rounds = 20000
	x := refSink | 1
	n := 0
	t0 := time.Now()
	var d time.Duration
	for d < refClockDur {
		for i := 0; i < rounds; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += rounds
		d = time.Since(t0)
	}
	clock := float64(n) / d.Seconds()

	lines := refBytes / refLine
	p := uint32(0)
	t0 = time.Now()
	for i := 0; i < lines; i++ {
		p = refChain[p]
	}
	load := float64(lines) / time.Since(t0).Seconds()
	refSink = x + uint64(p)

	return math.Pow(clock/refClockNominal, refClockWeight) * math.Pow(load/refLoadNominal, refLoadWeight)
}

// meter takes a reading after each measurement and scales it by the mean
// of that reading and the one before, if the one before was taken just
// before the measurement began. A reading is never taken straight after
// another or after the chain was built: it would find the chain in the
// cache the last pass left it in and say nothing about the host.
type meter struct {
	last  float64
	at    time.Time // when last was taken
	began time.Time
}

// refFresh is how long a reading stays good as the reading before the
// next measurement.
const refFresh = 100 * time.Millisecond

// start marks the beginning of a measurement.
func (m *meter) start() { m.began = time.Now() }

// lap ends the measurement begun at the last start and returns its
// length in seconds, as measured and at the nominal host speed.
func (m *meter) lap() (raw, scaled float64) {
	raw = time.Since(m.began).Seconds()
	return raw, raw * m.speed()
}

// speed takes the reading after a measurement and returns the host's
// speed over it.
func (m *meter) speed() float64 {
	r := refRead()
	s := r
	if m.last != 0 && m.began.Sub(m.at) < refFresh {
		s = (m.last + r) / 2
	}
	m.last, m.at = r, time.Now()
	return s
}

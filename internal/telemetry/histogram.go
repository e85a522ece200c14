package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: values below 16 get one exact bucket each;
// larger values land in subBuckets log-spaced sub-buckets per
// power-of-two octave, so the relative quantile error is bounded by
// 1/subBuckets (~6%) at any magnitude. The layout is fixed at compile
// time, which keeps Observe to two atomic adds and an increment with
// no allocation — cheap enough to sit on the per-command hot path.
const (
	subBuckets  = 16
	subShift    = 4 // log2(subBuckets)
	firstOctave = 4 // 2^4 == subBuckets: first non-exact octave
	// NumBuckets covers the full uint64 range.
	NumBuckets = subBuckets + (64-firstOctave)*subBuckets
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1 // firstOctave..63
	sub := (v >> (e - subShift)) & (subBuckets - 1)
	return subBuckets + int(e-firstOctave)*subBuckets + int(sub)
}

// BucketUpper returns the largest value that falls into bucket i.
func BucketUpper(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	o := uint(i-subBuckets)/subBuckets + firstOctave
	s := uint64(uint(i-subBuckets) % subBuckets)
	lower := uint64(1)<<o + s<<(o-subShift)
	return lower + 1<<(o-subShift) - 1
}

// Histogram is a lock-free log-bucketed histogram of uint64 samples
// (latencies in nanoseconds, op costs in cycles). All methods are safe
// for concurrent use; Observe never blocks.
type Histogram struct {
	labels Labels
	// scale converts stored sample units into the exported unit when
	// rendering Prometheus text (e.g. 1e-9 for nanoseconds → seconds).
	scale   float64
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveN records n samples of value v in one shot — three atomic
// adds total instead of 3n. Pipelined clients use it to attribute one
// measured batch round-trip to every op the batch carried without
// per-op atomics on the hot path.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	h.buckets[bucketIndex(v)].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Reset zeroes the histogram. It is not atomic with respect to
// concurrent Observe calls: samples landing mid-reset may survive or
// vanish, which is acceptable for a stats-window reset (RESETSTATS).
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
}

// Snapshot copies the histogram counters at one (approximate) instant.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the approximate q-quantile (0 < q <= 1) of the
// recorded samples.
func (h *Histogram) Quantile(q float64) uint64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable
// across shards.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Merge adds o into s (for aggregating per-shard histograms).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the upper bound of the bucket containing the
// q-quantile sample (exact for values < 16, within 1/16 above).
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket.
func (s HistSnapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Mean returns the arithmetic mean of the recorded samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantiles summarizes a histogram for a report or a JSON artifact.
type Quantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`
}

// QuantilesOf summarizes a histogram snapshot.
func QuantilesOf(s HistSnapshot) Quantiles {
	return Quantiles{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max(),
	}
}

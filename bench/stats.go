package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. It never interpolates, so a reported latency is one
// that was measured.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// quantile is percentile for float values in any order. vals is not
// modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median returns the middle value of vals (mean of the middle two for
// an even count). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread returns (max-min)/median of vals: how far the repeats of one
// measurement disagree, as a share of their median.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / math.Abs(m)
}

// sliceDur is the length of one slice of a measured window. A window is
// cut into slices of this length, each followed by a reading of the
// yardstick, and every timing metric is computed per slice and scaled to
// the nominal host speed by the readings on either side of it.
const sliceDur = 250 * time.Millisecond

// quietShare picks the slice a window reports. What the yardstick does
// not explain is still one-sided: a neighbour's burst, an interrupt or
// a page cache flush slows a slice and nothing speeds one up, and the p99
// of a slice takes every such event whole. So a metric is the value the
// best quarter of the slices reach or beat, not the median slice. Over
// ten runs of each workload the best-quarter slice spread less than the
// median slice on the p99 and the same on the rest.
const quietShare = 0.25

// sliceCount returns how many slices fit a window of the given length,
// readings included.
func sliceCount(seconds float64) int {
	return max(1, int(seconds*float64(time.Second)/float64(sliceDur+refDur)))
}

// sliceStat is a timing metric of a measured window: the value the best
// quietShare of its slices reach, with the median slice and the slice
// count beside it.
type sliceStat struct {
	Quiet  float64
	Median float64
	N      int
}

// quiet reduces per-slice values to a sliceStat. higher says which way
// is good: true for throughput, false for latency.
func quiet(vals []float64, higher bool) sliceStat {
	q := quietShare
	if higher {
		// The 1-q quantile by nearest rank from the top, so that both
		// directions pick the same rank counted from their good end.
		neg := make([]float64, len(vals))
		for i, v := range vals {
			neg[i] = -v
		}
		return sliceStat{Quiet: -quantile(neg, q), Median: median(vals), N: len(vals)}
	}
	return sliceStat{Quiet: quantile(vals, q), Median: median(vals), N: len(vals)}
}

func (s sliceStat) note() string {
	return fmt.Sprintf("best-quarter slice of %d x %v at nominal host speed; median slice %.6g", s.N, sliceDur, s.Median)
}

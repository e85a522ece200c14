package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.999); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestQuietSlice(t *testing.T) {
	// Twenty slices 101..120: the best quarter is reached by the fifth best
	// slice, from the low end for a latency and from the high end for
	// throughput.
	var vals []float64
	for i := 20; i >= 1; i-- {
		vals = append(vals, float64(100+i))
	}
	lat := quiet(vals, false)
	if lat.Quiet != 105 || lat.Median != 110.5 || lat.N != 20 {
		t.Errorf("latency: %+v, want quiet 105, median 110.5, 20 slices", lat)
	}
	if tp := quiet(vals, true); tp.Quiet != 116 {
		t.Errorf("throughput: quiet = %v, want 116", tp.Quiet)
	}
	if vals[0] != 120 {
		t.Error("quiet reordered its input")
	}
	if one := quiet([]float64{7}, true); one.Quiet != 7 || one.Median != 7 {
		t.Errorf("one slice gave %+v, want 7", one)
	}
	if st := quiet(nil, false); st.Quiet != 0 || st.Median != 0 {
		t.Errorf("no slices gave %+v, want zeros", st)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", m)
	}
	if got, want := spread([]float64{104, 100, 90, 110, 101}), 20.0/101; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if n := sliceCount(20); n != 72 {
		t.Errorf("sliceCount(20) = %d, want 72", n)
	}
	if n := sliceCount(0.1); n != 1 {
		t.Errorf("sliceCount(0.1) = %d, want 1", n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// burst [0,100] with children parse [10,30] and get [30,90]; get has a
	// child of its own [40,50] that must come off get, not off the burst.
	spans := []span{
		{Burst: 0, Name: stepBurst, Start: 0, End: 100, Parent: -1},
		{Burst: 0, Name: stepParse, Start: 10, End: 30, Parent: 0},
		{Burst: 0, Name: stepGet, Start: 30, End: 90, Parent: 0},
		{Burst: 0, Name: stepAppend, Start: 40, End: 50, Parent: 2},
		{Burst: 1, Name: stepBurst, Start: 100, End: 130, Parent: -1},
		{Burst: 1, Name: stepGet, Start: 105, End: 125, Parent: 4},
	}
	tot := selfTimes(spans)
	want := map[step]int64{stepBurst: 20 + 10, stepParse: 20, stepGet: 50 + 20, stepAppend: 10}
	for s, w := range want {
		if tot.self[s] != w {
			t.Errorf("self[%s] = %d, want %d", stepNames[s], tot.self[s], w)
		}
	}
	if tot.count[stepGet] != 2 || tot.count[stepBurst] != 2 {
		t.Errorf("counts = get %d burst %d, want 2 and 2", tot.count[stepGet], tot.count[stepBurst])
	}
	if got := tot.per(stepGet, 2); got != 35 {
		t.Errorf("per(get, 2) = %v, want 35", got)
	}
	var sum int64
	for _, v := range tot.self {
		sum += v
	}
	if sum != 130 {
		t.Errorf("self times sum to %d, want the 130 ns the two bursts cover", sum)
	}
}

func TestYardstickChainVisitsEveryLine(t *testing.T) {
	refInit()
	const stride = refLine / 4
	lines := refBytes / refLine
	seen := make([]bool, lines)
	p := uint32(0)
	for i := 0; i < lines; i++ {
		if p%stride != 0 || seen[p/stride] {
			t.Fatalf("step %d: word %d is off a line start or already visited", i, p)
		}
		seen[p/stride] = true
		p = refChain[p]
	}
	if p != 0 {
		t.Errorf("the chain ends at word %d after %d loads, want back at 0", p, lines)
	}
	if s := refRead(); s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("refRead() = %v, want a positive speed", s)
	}
}

func TestWindowScalesToNominalSpeed(t *testing.T) {
	// One slice on a host at half speed: 1000 ops in a second and a
	// 200 us median are 2000 ops/s and 100 us at speed 1.
	w := newWindow(1)
	w.dur[0], w.ops[0], w.speed[0] = time.Second, 1000, 0.5
	w.lat[0] = []int64{100_000, 200_000, 300_000}
	if got := w.throughput()[0]; got != 2000 {
		t.Errorf("throughput = %v, want 2000", got)
	}
	if got := w.latencyUS(0.5)[0]; got != 100 {
		t.Errorf("p50 = %v us, want 100", got)
	}
	if got := w.samples(); got != 3 {
		t.Errorf("samples = %d, want 3", got)
	}
}

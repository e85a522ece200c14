package telemetry

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20,
		1<<40 + 12345, 1<<63 + 1, ^uint64(0)}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if up := BucketUpper(i); v > up {
			t.Errorf("value %d above its bucket upper bound %d (bucket %d)", v, up, i)
		}
		if i > 0 {
			if prev := BucketUpper(i - 1); v <= prev {
				t.Errorf("value %d not above previous bucket's upper bound %d", v, prev)
			}
		}
	}
	// Bucket upper bounds must be strictly increasing.
	for i := 1; i < NumBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Fatalf("BucketUpper not increasing at %d: %d <= %d", i, BucketUpper(i), BucketUpper(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d", got)
	}
	checks := []struct {
		q   float64
		min uint64
		max uint64
	}{
		{0.50, 450, 560}, // log buckets: <= 1/16 relative error
		{0.99, 900, 1056},
		{0.999, 930, 1056},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.min || got > c.max {
			t.Errorf("Quantile(%v) = %d, want in [%d, %d]", c.q, got, c.min, c.max)
		}
	}
	s := h.Snapshot()
	if s.Max() < 1000 || s.Max() > 1056 {
		t.Errorf("Max = %d", s.Max())
	}
	if m := s.Mean(); m < 499 || m > 502 {
		t.Errorf("Mean = %v", m)
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("Reset did not clear histogram")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count = %d", s.Count)
	}
	if q := s.Quantile(0.25); q != 10 {
		t.Errorf("merged p25 = %d, want 10", q)
	}
	if q := s.Quantile(0.9); q < 1000 {
		t.Errorf("merged p90 = %d, want >= 1000", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, each = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				h.Observe(uint64(r.Intn(1 << 20)))
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*each {
		t.Fatalf("lost observations: %d != %d", got, goroutines*each)
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("addrkv_ops_total", "ops served", Labels{"shard": "0"})
	c.Add(5)
	c2 := reg.Counter("addrkv_ops_total", "ops served", Labels{"shard": "1"})
	c2.Add(7)
	reg.GaugeFunc("addrkv_hit_rate", "fast-path hit rate", nil, func() float64 { return 0.75 })
	reg.GaugeFunc("addrkv_keys", "stored keys", Labels{"shard": "0"}, func() float64 { return 42 })
	reg.CounterFunc("addrkv_drains_total", "drain bursts", nil, func() float64 { return 9 })
	h := reg.Histogram("addrkv_latency_seconds", "command latency", 1e-9, Labels{"cmd": "get"})
	h.Observe(1500) // 1.5us
	h.Observe(3000)

	hookRan := false
	reg.OnScrape(func() { hookRan = true })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !hookRan {
		t.Error("scrape hook not run")
	}
	for _, want := range []string{
		"# HELP addrkv_ops_total ops served",
		"# TYPE addrkv_ops_total counter",
		`addrkv_ops_total{shard="0"} 5`,
		`addrkv_ops_total{shard="1"} 7`,
		"# TYPE addrkv_hit_rate gauge",
		"addrkv_hit_rate 0.75",
		`addrkv_keys{shard="0"} 42`,
		"# TYPE addrkv_drains_total counter",
		"addrkv_drains_total 9",
		"# TYPE addrkv_latency_seconds histogram",
		`addrkv_latency_seconds_bucket{cmd="get",le="+Inf"} 2`,
		`addrkv_latency_seconds_count{cmd="get"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE headers must appear exactly once per family.
	if n := strings.Count(out, "# TYPE addrkv_ops_total"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
	// Histogram cumulative buckets must be non-decreasing and end at
	// the sample count.
	if !strings.Contains(out, `le="4.096e-06"`) {
		t.Errorf("expected a power-of-two microsecond bucket boundary:\n%s", out)
	}
}

func TestRegistryTypeClash(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("type clash not detected")
		}
	}()
	reg.GaugeFunc("m", "h", nil, func() float64 { return 0 })
}

func TestSlowlogKeepsSlowest(t *testing.T) {
	l := NewSlowlog(3)
	durs := []time.Duration{5, 1, 9, 3, 7, 2, 8}
	for i, d := range durs {
		l.Note(SlowlogEntry{Duration: d * time.Microsecond, Args: []string{"GET", "k"}, Shard: i})
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	es := l.Entries(0)
	if len(es) != 3 || es[0].Duration != 9*time.Microsecond ||
		es[1].Duration != 8*time.Microsecond || es[2].Duration != 7*time.Microsecond {
		t.Fatalf("wrong slowest set: %+v", es)
	}
	// A fast command must be rejected without changing the set.
	if l.Note(SlowlogEntry{Duration: 1 * time.Microsecond}) {
		t.Error("fast command recorded into a full slowlog")
	}
	// Entries(max) truncates.
	if got := len(l.Entries(2)); got != 2 {
		t.Fatalf("Entries(2) returned %d", got)
	}
	// IDs keep counting across Reset.
	maxID := es[0].ID
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	l.Note(SlowlogEntry{Duration: time.Millisecond})
	if es := l.Entries(0); len(es) != 1 || es[0].ID <= maxID {
		t.Fatalf("ids did not keep counting: %+v", es)
	}
}

func TestSlowlogConcurrent(t *testing.T) {
	l := NewSlowlog(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Note(SlowlogEntry{Duration: time.Duration(i ^ g*7919)})
			}
		}(g)
	}
	wg.Wait()
	es := l.Entries(0)
	if len(es) != 16 {
		t.Fatalf("Len = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Duration > es[i-1].Duration {
			t.Fatal("entries not sorted slowest-first")
		}
	}
}

func TestFeed(t *testing.T) {
	f := NewFeed()
	if f.Active() {
		t.Fatal("fresh feed active")
	}
	f.Publish("dropped-on-floor") // no subscribers: no-op
	id, ch := f.Subscribe(2)
	if !f.Active() || f.Subscribers() != 1 {
		t.Fatal("subscriber not counted")
	}
	f.Publish("one")
	f.Publish("two")
	f.Publish("overflow") // buffer of 2 is full: dropped
	if got := <-ch; got != "one" {
		t.Fatalf("got %q", got)
	}
	if got := <-ch; got != "two" {
		t.Fatalf("got %q", got)
	}
	if f.Dropped() != 1 {
		t.Fatalf("Dropped = %d", f.Dropped())
	}
	f.Unsubscribe(id)
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed on unsubscribe")
	}
	if f.Active() {
		t.Fatal("feed still active")
	}
	f.Unsubscribe(id) // double-unsubscribe is a no-op
}

func TestSnapshotWriteFile(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i * 100)
	}
	s := &Snapshot{
		Name:   "fig11",
		Kind:   "harness",
		Params: map[string]any{"keys": 1000},
		Runs: []RunRecord{{
			Spec: "1000/64/zipf/stlt/chainhash", Ops: 5000, Cycles: 123456,
			CyclesPerOp: 24.7,
		}},
		Tables: []TableData{{
			Title: "demo", Columns: []string{"a", "b"},
			Rows: [][]string{{"1", "2"}},
		}},
		Latency: map[string]Quantiles{"op_cycles": QuantilesOf(h.Snapshot())},
	}
	path := filepath.Join(t.TempDir(), "BENCH_fig11.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "fig11" || back.Runs[0].Cycles != 123456 ||
		back.Tables[0].Rows[0][1] != "2" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if q := back.Latency["op_cycles"]; q.Count != 100 || q.P50 == 0 {
		t.Fatalf("latency quantiles lost: %+v", q)
	}
}

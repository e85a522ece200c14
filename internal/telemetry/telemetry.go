// Package telemetry is the observability layer of the addrkv server
// stack: a lock-free metrics registry (atomic counters, log-bucketed
// histograms, and gauges or counters read at scrape time) with
// Prometheus text-format rendering, a slowlog of the slowest commands,
// a MONITOR-style command feed, and JSON benchmark snapshots.
//
// Everything on the record path is a handful of atomic operations, so
// instrumentation can sit inside the per-shard serving loop without
// perturbing the simulated timing: telemetry only ever *reads* the
// engine's counters, never charges cycles, which keeps telemetry-on
// runs bit-for-bit identical to telemetry-off runs.
//
// Histograms are sharded per core by the callers (one histogram per
// shard), mirroring how the engines themselves are sharded: each
// serving goroutine then touches only cache lines of its own shard's
// histogram, and aggregate views are built by merging snapshots at
// read time (INFO, /metrics scrape) instead of contending at write
// time.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant Prometheus labels attached to one metric
// instance (e.g. {shard="3"} or {cmd="get"}).
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// renderWith appends extra label pairs (for histogram "le").
func (l Labels) renderWith(extraK, extraV string) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	if len(keys) > 0 {
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	labels Labels
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// valueFunc is a gauge or counter computed at scrape time.
type valueFunc struct {
	labels Labels
	f      func() float64
}

// family groups all instances of one metric name under a shared HELP
// and TYPE header, as the Prometheus exposition format requires.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	counters   []*Counter
	funcs      []valueFunc
	histograms []*Histogram
}

// Registry holds registered metrics and renders them in Prometheus
// text exposition format. Registration is expected at startup;
// metric updates are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	hooks    []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter registers (or extends a family with) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, "counter")
	c := &Counter{labels: labels}
	r.mu.Lock()
	f.counters = append(f.counters, c)
	r.mu.Unlock()
	return c
}

// GaugeFunc registers a gauge computed by f at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, f func() float64) {
	r.valueFunc(name, help, "gauge", labels, f)
}

// CounterFunc registers a counter whose value f reads at scrape time
// from a count kept elsewhere (TYPE counter; a restart of that count's
// window, like any counter reset, is the scraper's to detect).
func (r *Registry) CounterFunc(name, help string, labels Labels, f func() float64) {
	r.valueFunc(name, help, "counter", labels, f)
}

func (r *Registry) valueFunc(name, help, typ string, labels Labels, f func() float64) {
	fam := r.family(name, help, typ)
	r.mu.Lock()
	fam.funcs = append(fam.funcs, valueFunc{labels: labels, f: f})
	r.mu.Unlock()
}

// Histogram registers a histogram. scale converts stored sample units
// to the exported unit (1e-9 renders nanosecond samples as seconds;
// use 1 for dimensionless samples such as cycles).
func (r *Registry) Histogram(name, help string, scale float64, labels Labels) *Histogram {
	f := r.family(name, help, "histogram")
	h := &Histogram{labels: labels, scale: scale}
	r.mu.Lock()
	f.histograms = append(f.histograms, h)
	r.mu.Unlock()
	return h
}

// OnScrape registers a hook run at the start of every WritePrometheus
// call — the place to refresh cached engine snapshots that several
// GaugeFuncs then read.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}

	r.mu.Lock()
	fams := append([]*family{}, r.families...)
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, c := range f.counters {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, c.labels.render(), c.Load()); err != nil {
				return err
			}
		}
		for _, vf := range f.funcs {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", f.name, vf.labels.render(), vf.f()); err != nil {
				return err
			}
		}
		for _, h := range f.histograms {
			if err := writeHistogram(w, f.name, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram with power-of-two "le"
// boundaries, coalescing the sub-octave buckets (976 internal buckets
// would drown a scraper; ~30 octave boundaries carry the shape).
// Counts are of samples strictly below each boundary.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	s := h.Snapshot()
	scale := h.scale
	if scale == 0 {
		scale = 1
	}
	first, last := -1, -1
	for i, c := range s.Buckets {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first >= 0 {
		lo, hi := BucketUpper(first), BucketUpper(last)
		var cum uint64
		idx := 0
		for k := 0; k < 64; k++ {
			bound := uint64(1) << k
			for idx < NumBuckets && BucketUpper(idx) < bound {
				cum += s.Buckets[idx]
				idx++
			}
			if bound <= lo {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				name, h.labels.renderWith("le", formatFloat(float64(bound)*scale)), cum); err != nil {
				return err
			}
			if bound > hi {
				break
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.labels.renderWith("le", "+Inf"), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, h.labels.render(), float64(s.Sum)*scale); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels.render(), s.Count)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

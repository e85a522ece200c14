// Bundle is the flight recorder's dump format: a self-contained JSON
// artifact holding the retained traces of every shard, the per-kind
// event totals over the whole run, and the anomaly log. kvtrace loads
// bundles; kvserve writes them (TRACE DUMP, anomaly auto-dump, and the
// final dump on shutdown).

package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// BundleVersion is the dump schema version ParseBundle accepts.
const BundleVersion = 1

// Bundle is one flight-recorder dump.
type Bundle struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Kind    string `json:"kind"` // always "trace-bundle"
	// Reason is "manual", "final", or the anomaly trigger name.
	Reason   string `json:"reason"`
	UnixTime int64  `json:"unix_time"`
	Shards   int    `json:"shards"`
	// SampleEvery is the 1-in-N sampling rate at dump time.
	SampleEvery uint64 `json:"sample_every"`
	// Traced counts every op traced since start, retained or not.
	Traced uint64 `json:"traced"`
	// EventCounts totals events by kind over every traced op.
	EventCounts map[string]uint64 `json:"event_counts,omitempty"`
	// Ops holds the retained traces, ordered by shard then age.
	Ops []*Op `json:"ops"`
	// Anomalies is the trigger log.
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// MarshalJSON renders the kind as its stable wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a wire name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("trace: bad event kind %s", b)
	}
	kind, ok := KindByName(s)
	if !ok {
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	*k = kind
	return nil
}

// Snapshot assembles a Bundle from the tracer's current state. reason
// labels why the dump was taken.
func (t *Tracer) Snapshot(name, reason string) *Bundle {
	b := &Bundle{
		Version:     BundleVersion,
		Name:        name,
		Kind:        "trace-bundle",
		Reason:      reason,
		UnixTime:    time.Now().Unix(),
		Shards:      t.shards,
		SampleEvery: t.sample.Load(),
		Traced:      t.traced.Load(),
		EventCounts: t.EventCounts(),
	}
	for i := range t.rings {
		b.Ops = append(b.Ops, t.rings[i].snapshot()...)
	}
	t.anomMu.Lock()
	b.Anomalies = append([]Anomaly(nil), t.anomalies...)
	t.anomMu.Unlock()
	return b
}

// Marshal renders the bundle as indented JSON with a trailing newline.
func (b *Bundle) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// WriteFile writes the bundle to path.
func (b *Bundle) WriteFile(path string) error {
	buf, err := b.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ParseBundle decodes and validates a dump. It rejects unknown
// versions, unknown event kinds (the EventKind unmarshaler), negative
// timelines, and ops whose events exceed sane bounds — the contract
// the kvtrace fuzz target pins.
func ParseBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("trace: unsupported bundle version %d", b.Version)
	}
	if b.Kind != "trace-bundle" {
		return nil, fmt.Errorf("trace: kind %q is not a trace bundle", b.Kind)
	}
	if b.Shards < 0 {
		return nil, fmt.Errorf("trace: negative shard count %d", b.Shards)
	}
	for i, op := range b.Ops {
		if op == nil {
			return nil, fmt.Errorf("trace: op %d is null", i)
		}
		if op.Name == "" {
			return nil, fmt.Errorf("trace: op %d has no name", i)
		}
		if op.WallNS < 0 {
			return nil, fmt.Errorf("trace: op %d has negative wall time", i)
		}
		for j, e := range op.Events {
			if int(e.Kind) >= NumEventKinds {
				return nil, fmt.Errorf("trace: op %d event %d kind out of range", i, j)
			}
			if e.WallNS < 0 {
				return nil, fmt.Errorf("trace: op %d event %d has negative wall time", i, j)
			}
		}
	}
	return &b, nil
}

// ParseBundleFile loads and validates a dump from disk.
func ParseBundleFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := ParseBundle(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Merge folds o's ops, anomalies and totals into b (multi-file
// kvtrace loads). Ops are re-sorted by start time.
func (b *Bundle) Merge(o *Bundle) {
	b.Ops = append(b.Ops, o.Ops...)
	b.Anomalies = append(b.Anomalies, o.Anomalies...)
	b.Traced += o.Traced
	if b.EventCounts == nil {
		b.EventCounts = map[string]uint64{}
	}
	for k, v := range o.EventCounts {
		b.EventCounts[k] += v
	}
	if o.Shards > b.Shards {
		b.Shards = o.Shards
	}
	sort.SliceStable(b.Ops, func(i, j int) bool {
		return b.Ops[i].StartUnixNS < b.Ops[j].StartUnixNS
	})
}

// Dumper serializes flight-recorder dumps into a directory with
// sequenced, reason-stamped filenames. It is safe for concurrent use
// (the anomaly path dumps from its own goroutine).
type Dumper struct {
	mu   sync.Mutex
	dir  string
	name string
	seq  int
}

// NewDumper writes bundles named <name>-<seq>-<reason>.json under dir.
func NewDumper(dir, name string) *Dumper { return &Dumper{dir: dir, name: name} }

// Dump snapshots the tracer and writes one bundle file, returning its
// path.
func (d *Dumper) Dump(t *Tracer, reason string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return "", err
	}
	d.seq++
	path := filepath.Join(d.dir, fmt.Sprintf("%s-%03d-%s.json", d.name, d.seq, sanitize(reason)))
	if err := t.Snapshot(d.name, reason).WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// sanitize keeps dump filenames shell-safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && i < 32; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}

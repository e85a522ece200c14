package kvproc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"addrkv/internal/hostmeta"
	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
)

// Header opens every JSON artifact the tools write. WriteJSON fills
// Host, so no artifact can be read without knowing what it ran on.
type Header struct {
	Name   string         `json:"name"`
	Kind   string         `json:"kind,omitempty"`
	Host   hostmeta.Meta  `json:"host"`
	Params map[string]any `json:"params"`
}

func (h *Header) stamp() { h.Host = hostmeta.Collect() }

// DepthResult is one kvbench measurement point: what kvbench writes
// and what every orchestrator reads back, one type on both sides.
type DepthResult struct {
	Depth     int     `json:"depth"`
	Conns     int     `json:"conns"`
	Ops       uint64  `json:"ops"`
	Errors    uint64  `json:"errors"`
	ElapsedNS int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// RoundtripUS summarizes the per-flush roundtrip (write batch,
	// flush, read all replies) in microseconds.
	RoundtripUS telemetry.Quantiles `json:"roundtrip_us"`
	// LatencyUS approximates per-op latency percentiles: every op in a
	// depth-D pipelined batch experiences ~the batch's full roundtrip,
	// so each roundtrip contributes D samples of its duration.
	LatencyUS telemetry.Quantiles `json:"latency_us"`
	// Redirect traffic absorbed in cluster mode (zero otherwise).
	Moved    uint64 `json:"moved,omitempty"`
	Ask      uint64 `json:"ask,omitempty"`
	TryAgain uint64 `json:"tryagain,omitempty"`
	// Repairs counts slot-table rebuilds forced by routing to an
	// unreachable (killed) node.
	Repairs uint64 `json:"repairs,omitempty"`
}

// TraceOverhead compares server throughput with tracing off vs
// sampling 1 in SampleEvery ops — the cost of leaving the flight
// recorder armed in production.
type TraceOverhead struct {
	SampleEvery  uint64  `json:"sample_every"`
	OpsPerSecOff float64 `json:"ops_per_sec_off"`
	OpsPerSecOn  float64 `json:"ops_per_sec_on"`
	// OverheadFrac is 1 - median(on/off) over the interleaved round
	// pairs; negative values mean the traced leg measured faster
	// (noise).
	OverheadFrac float64 `json:"overhead_frac"`
}

// BenchArtifact is kvbench's -json output.
type BenchArtifact struct {
	Header
	Sweep         []DepthResult  `json:"sweep"`
	TraceOverhead *TraceOverhead `json:"trace_overhead,omitempty"`
}

// Bench runs a kvbench binary to completion with "-json <temp file>"
// appended to args and returns the sweep it measured. A failed run, an
// empty sweep and any error reply are all errors.
func Bench(bin string, args ...string) ([]DepthResult, error) {
	f, err := os.CreateTemp("", "kvbench-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	p, err := spawn(os.Stdout, bin, append(args[:len(args):len(args)], "-json", f.Name())...)
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	<-p.exited
	p.reaped()
	if !p.cmd.ProcessState.Success() {
		return nil, fmt.Errorf("%s: %v", bin, p.cmd.ProcessState)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var art BenchArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		return nil, fmt.Errorf("parse %s output: %w", bin, err)
	}
	if len(art.Sweep) == 0 {
		return nil, fmt.Errorf("%s wrote an empty sweep", bin)
	}
	for _, d := range art.Sweep {
		if d.Errors > 0 {
			return nil, fmt.Errorf("%s: depth %d saw %d error replies", bin, d.Depth, d.Errors)
		}
	}
	return art.Sweep, nil
}

// WriteJSON stamps the host fingerprint into v's Header and writes v,
// indented, to path, creating the directory if needed.
func WriteJSON(path string, v interface{ stamp() }) error {
	v.stamp()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fields is a parsed INFO-style payload, one "key:value" per line.
type Fields map[string]string

// Info runs an INFO-shaped command (INFO, CLUSTER INFO, CLUSTER
// HEARTBEAT STATUS) on c and parses the bulk reply.
func Info(c *resp.Client, cmd ...string) (Fields, error) {
	v, err := c.Do(cmd...)
	if err != nil {
		return nil, err
	}
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("%s: reply %T (%v), want a bulk string", strings.Join(cmd, " "), v, v)
	}
	f := Fields{}
	for _, line := range strings.Split(string(b), "\n") {
		if k, val, ok := strings.Cut(strings.TrimRight(line, "\r"), ":"); ok {
			f[k] = val
		}
	}
	return f, nil
}

// Uint returns the field as an integer. An absent field is an error: a
// renamed series row must fail the job, not write a zero.
func (f Fields) Uint(key string) (uint64, error) {
	v, ok := f[key]
	if !ok {
		return 0, fmt.Errorf("field %q is absent", key)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("field %q: %w", key, err)
	}
	return n, nil
}

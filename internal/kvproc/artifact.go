// Package kvproc holds what the command-line tools share about their
// results: Header, the host-stamped opening of every JSON artifact
// (kvbench's sweep), and the parser for kvserve's INFO-shaped replies
// (INFO, CLUSTER INFO, CLUSTER HEARTBEAT STATUS) that kvtop reads. It
// starts no process.
package kvproc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// DepthResult is one kvbench measurement point.
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

// BenchArtifact is kvbench's -json output.
type BenchArtifact struct {
	Header
	Sweep []DepthResult `json:"sweep"`
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
	return ParseInfo(b), nil
}

// ParseInfo parses an INFO-shaped bulk reply, for a caller that must
// tell an error reply from a failed connection before parsing.
func ParseInfo(b []byte) Fields {
	f := Fields{}
	for _, line := range strings.Split(string(b), "\n") {
		if k, val, ok := strings.Cut(strings.TrimRight(line, "\r"), ":"); ok {
			f[k] = val
		}
	}
	return f
}

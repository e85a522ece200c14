// Span-tracing wiring for kvserve: the -trace-* flags, the TRACE
// ON/OFF/STATUS/DUMP command, the flight-recorder dump sink, and the
// INFO/Prometheus surfaces for tracing state.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"addrkv/internal/resp"
	"addrkv/internal/trace"
)

// defaultTraceRing is the per-shard flight-recorder depth: how many
// completed traces each shard keeps.
const defaultTraceRing = 64

// traceConfig bundles the tracing knobs from the -trace-* flags.
type traceConfig struct {
	// sampleEvery is the initial 1-in-N sampling rate (0 = off).
	sampleEvery uint64
	// dir, when non-empty, receives flight-recorder dump bundles
	// (TRACE DUMP, anomaly auto-dumps, and the final dump on
	// shutdown) plus the Chrome trace_event export.
	dir string
	// slowCycles arms the slow-op anomaly trigger (0 = off).
	slowCycles uint64
}

// initTrace builds the server's tracer and dump sink.
func (s *server) initTrace(cfg traceConfig) {
	tr := trace.NewTracer(s.sys.Cluster().NumShards(), defaultTraceRing, cfg.sampleEvery)
	tr.SetAnomalyConfig(trace.AnomalyConfig{
		SlowCycles: cfg.slowCycles,
		WalkInWarm: true,
	})
	s.tracer = tr
	s.traceDir = cfg.dir
	s.sys.Cluster().SetTracer(tr)
	if cfg.dir != "" {
		s.dumper = trace.NewDumper(cfg.dir, "kvserve")
		tr.SetDumpFunc(func(reason string) {
			if path, err := s.dumper.Dump(tr, reason); err != nil {
				log.Printf("kvserve: trace auto-dump (%s): %v", reason, err)
			} else {
				log.Printf("kvserve: trace auto-dump (%s) -> %s", reason, path)
			}
		})
	}
}

// finalTraceDump writes the shutdown bundle (plus its Chrome export)
// when a dump directory is configured and anything was traced.
func (s *server) finalTraceDump() {
	if s.dumper == nil || s.tracer.Traced() == 0 {
		return
	}
	path, err := s.dumper.Dump(s.tracer, "final")
	if err != nil {
		log.Printf("kvserve: final trace dump: %v", err)
		return
	}
	log.Printf("kvserve: final trace dump -> %s", path)
	if cpath, err := s.writeChromeTrace("final"); err != nil {
		log.Printf("kvserve: chrome trace export: %v", err)
	} else {
		log.Printf("kvserve: chrome trace -> %s", cpath)
	}
}

// writeChromeTrace renders the current flight-recorder contents as
// Chrome trace_event JSON under the dump directory.
func (s *server) writeChromeTrace(label string) (string, error) {
	path := filepath.Join(s.traceDir, fmt.Sprintf("kvserve-chrome-%s.json", label))
	if err := os.MkdirAll(s.traceDir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(trace.ChromeTraceOf(s.tracer.Snapshot("kvserve", label)), "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceCmd handles TRACE ON [1-in-N] / OFF / STATUS / DUMP.
func (s *server) traceCmd(w *resp.Writer, args [][]byte, _ *connState) (quit, monitor, isErr bool) {
	switch strings.ToLower(string(args[1])) {
	case "on":
		every := uint64(1)
		if len(args) == 3 {
			v, err := strconv.ParseUint(string(args[2]), 10, 64)
			if err != nil || v < 1 {
				return fail(w, "ERR invalid trace sampling rate")
			}
			every = v
		} else if len(args) > 3 {
			return wrongArity(w, "trace on")
		}
		s.tracer.SetSample(every)
		w.WriteSimple("OK")
	case "off":
		s.tracer.SetSample(0)
		w.WriteSimple("OK")
	case "status":
		counts := s.tracer.EventCounts()
		var b strings.Builder
		fmt.Fprintf(&b, "sample_every:%d\r\n", s.tracer.Sample())
		fmt.Fprintf(&b, "traced_ops:%d\r\n", s.tracer.Traced())
		fmt.Fprintf(&b, "shards:%d\r\n", s.tracer.Shards())
		fmt.Fprintf(&b, "anomalies:%d\r\n", s.tracer.AnomalyCount())
		fmt.Fprintf(&b, "auto_dumps:%d\r\n", s.tracer.Dumps())
		fmt.Fprintf(&b, "warm_phase:%v\r\n", s.tracer.Warm())
		fmt.Fprintf(&b, "dump_dir:%s\r\n", s.traceDir)
		for _, k := range traceKindOrder() {
			if n, ok := counts[k]; ok {
				fmt.Fprintf(&b, "events_%s:%d\r\n", strings.ReplaceAll(k, ".", "_"), n)
			}
		}
		w.WriteBulk([]byte(b.String()))
	case "dump":
		if s.dumper == nil {
			return fail(w, "ERR no trace dump directory configured (start kvserve with -trace-dir)")
		}
		reason := "manual"
		if len(args) == 3 {
			reason = string(args[2])
		} else if len(args) > 3 {
			return wrongArity(w, "trace dump")
		}
		path, err := s.dumper.Dump(s.tracer, reason)
		if err != nil {
			return fail(w, fmt.Sprintf("ERR trace dump: %v", err))
		}
		if _, err := s.writeChromeTrace(reason); err != nil {
			log.Printf("kvserve: chrome trace export: %v", err)
		}
		w.WriteBulk([]byte(path))
	default:
		return fail(w, fmt.Sprintf("ERR unknown TRACE subcommand '%s'", args[1]))
	}
	return false, false, false
}

// traceKindOrder returns the event kinds in pipeline order for the
// STATUS listing.
func traceKindOrder() []string {
	out := make([]string, trace.NumEventKinds)
	for i := range out {
		out[i] = trace.EventKind(i).String()
	}
	return out
}

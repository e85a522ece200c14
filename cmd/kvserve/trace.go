// Span-tracing wiring for kvserve: the TRACE ON/OFF/STATUS/DUMP
// command and the flight-recorder dump sink under -trace-dir. The
// tracing state's INFO, /metrics and TRACE STATUS rows are series.go's
// "# tracing" section; spans begin only in enqueue.
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"

	"addrkv/internal/resp"
	"addrkv/internal/trace"
)

// defaultTraceRing is the per-shard flight-recorder depth: how many
// completed traces each shard keeps.
const defaultTraceRing = 64

// initTrace builds the server's tracer and dump sink from the config.
func (s *server) initTrace() {
	tr := trace.NewTracer(s.sys.Cluster().NumShards(), defaultTraceRing)
	s.tracer = tr
	if s.cfg.traceDir != "" {
		s.dumper = trace.NewDumper(s.cfg.traceDir, "kvserve")
		tr.SetDumpFunc(func(reason string) {
			if path, err := s.dumper.Dump(tr, reason); err != nil {
				log.Printf("kvserve: trace auto-dump (%s): %v", reason, err)
			} else {
				log.Printf("kvserve: trace auto-dump (%s) -> %s", reason, path)
			}
		})
	}
}

// finalTraceDump writes the shutdown bundle when a dump directory is
// configured and anything was traced.
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
		var b strings.Builder
		b.WriteString(renderText(s.view(), onTrace))
		counts := s.tracer.EventCounts()
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

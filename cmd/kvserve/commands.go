// The command table: the one declaration of which verbs exist, their
// arity, where their keys sit, and what runs them. The burst loop, the
// arity check, cluster slot checking, ASKING, span naming and the
// per-command metric series all read it; nothing else lists commands.
//
// A row is either a single-key verb — ring set, op naming the
// shard.OpKind its one-key form executes as — or a barrier verb with a
// handler, or (DEL) both: one key rides the ring, several take the
// handler. Single-key forms go down one route (enqueue → shard →
// flushPending, see runtime.go); everything else runs in dispatch
// after the connection's pending window has been flushed, so replies
// always leave in command order.
package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
)

// handler runs one barrier command and writes its reply. Handlers that
// reach an engine note one OpOutcome per engine op in cs.outs: one per
// key for the multi-key verbs, one per shard walk for SCAN/RANGE.
type handler func(s *server, w *resp.Writer, args [][]byte, cs *connState) (quit, monitor, isErr bool)

type command struct {
	// name is the verb, lowercase: the lookup key, the cmd label of the
	// metric series, the span name.
	name string
	// arity counts arguments with the name, Redis convention: n > 0
	// means exactly n, n < 0 at least -n.
	arity int
	// first, last and step locate the keys among the arguments (Redis
	// convention: last < 0 counts from the end, first 0 = no keys). A
	// step of 2 also makes an unpaired trailing argument an arity error.
	first, last, step int
	// ring marks a single-key verb: its one-key form executes as op on
	// the key's home shard. unit is the TTL verbs' time unit in ns.
	ring bool
	op   shard.OpKind
	unit int64
	// handler runs every other form.
	handler handler
	// scan marks the keyspace walks, which cluster mode refuses while
	// any slot is migrating; fastPath the lookups whose outcome feeds
	// the fast-path hit/miss series.
	scan, fastPath bool
}

// commands is ordered for the linear lookup: the hot verbs first.
var commands = []command{
	{name: "get", arity: 2, first: 1, last: 1, step: 1, ring: true, op: shard.OpGet, fastPath: true},
	{name: "set", arity: 3, first: 1, last: 1, step: 1, ring: true, op: shard.OpSet},
	{name: "del", arity: -2, first: 1, last: -1, step: 1, ring: true, op: shard.OpDelete, handler: (*server).delCmd},
	{name: "exists", arity: 2, first: 1, last: 1, step: 1, ring: true, op: shard.OpExists, fastPath: true},
	{name: "expire", arity: 3, first: 1, last: 1, step: 1, ring: true, op: shard.OpExpireAt, unit: int64(time.Second)},
	{name: "pexpire", arity: 3, first: 1, last: 1, step: 1, ring: true, op: shard.OpExpireAt, unit: int64(time.Millisecond)},
	{name: "ttl", arity: 2, first: 1, last: 1, step: 1, ring: true, op: shard.OpTTL, unit: int64(time.Second)},
	{name: "pttl", arity: 2, first: 1, last: 1, step: 1, ring: true, op: shard.OpTTL, unit: int64(time.Millisecond)},
	{name: "mget", arity: -2, first: 1, last: -1, step: 1, handler: (*server).mgetCmd, fastPath: true},
	{name: "mset", arity: -3, first: 1, last: -1, step: 2, handler: (*server).msetCmd},
	{name: "ping", arity: -1, handler: (*server).pingCmd},
	{name: "echo", arity: 2, handler: (*server).echoCmd},
	{name: "scan", arity: -2, handler: (*server).scanCmd, scan: true},
	{name: "range", arity: -3, handler: (*server).rangeCmd, scan: true},
	{name: "dbsize", arity: -1, handler: (*server).dbsizeCmd},
	{name: "info", arity: -1, handler: (*server).infoCmd},
	{name: "resetstats", arity: -1, handler: (*server).resetstatsCmd},
	{name: "flushall", arity: -1, handler: (*server).flushallCmd},
	{name: "slowlog", arity: -2, handler: (*server).slowlogCmd},
	{name: "monitor", arity: -1, handler: (*server).monitorCmd},
	{name: "trace", arity: -2, handler: (*server).traceCmd},
	{name: "bgsave", arity: 1, handler: (*server).bgsaveCmd},
	{name: "lastsave", arity: 1, handler: (*server).lastsaveCmd},
	{name: "cluster", arity: -1, handler: (*server).clusterCmd},
	{name: "asking", arity: -1, handler: (*server).askingCmd},
	{name: "quit", arity: -1, handler: (*server).quitCmd},
}

// lookupCommand finds name's row, ignoring ASCII letter case, without
// allocating; nil for a verb the table does not have.
func lookupCommand(name []byte) *command {
next:
	for i := range commands {
		c := &commands[i]
		if len(name) != len(c.name) {
			continue
		}
		for j := 0; j < len(name); j++ {
			b := name[j]
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if b != c.name[j] {
				continue next
			}
		}
		return c
	}
	return nil
}

// arityOK checks an argument count (name included) against the row.
func (c *command) arityOK(nargs int) bool {
	if nargs != c.arity && (c.arity > 0 || nargs < -c.arity) {
		return false
	}
	return c.step < 2 || (nargs-c.first)%c.step == 0
}

// lastKey resolves the row's last key position for nargs arguments.
func (c *command) lastKey(nargs int) int {
	if c.last < 0 {
		return nargs + c.last
	}
	return c.last
}

// rides reports whether a command of nargs arguments takes the
// single-key route: a well-formed one-key form of a ring verb. Any
// other form of it — wrong arity, several keys — is a barrier command.
func (c *command) rides(nargs int) bool {
	return c.ring && c.arityOK(nargs) && c.lastKey(nargs) == c.first
}

// fail answers a command with an error reply.
func fail(w *resp.Writer, msg string) (quit, monitor, isErr bool) {
	w.WriteError(msg)
	return false, false, true
}

// wrongArity is the one arity error, of a command or a subcommand.
func wrongArity(w *resp.Writer, name string) (quit, monitor, isErr bool) {
	return fail(w, "ERR wrong number of arguments for '"+name+"'")
}

// dispatch runs one barrier command — the caller has flushed the
// pending window — and records its telemetry: wall-clock latency, the
// per-command counters, the outcomes of the engine ops it ran, a
// slowlog offer and the MONITOR feed line. c is args[0]'s row, nil for
// an unknown verb.
func (s *server) dispatch(w *resp.Writer, c *command, args [][]byte, cs *connState) (quit, monitor bool) {
	start := time.Now()
	// ASKING covers exactly the next command, whatever it is; only a
	// single-key command can use it (see enqueue), and askingCmd re-arms
	// the flag after this.
	cs.asking = false
	cs.outs = cs.outs[:0]
	quit, monitor, isErr := s.execute(w, c, args, cs)
	s.tele.observeCmd(c, args, cs.outs, time.Since(start), isErr)
	return quit, monitor
}

// execute makes the checks every command shares, once, from the row —
// arity, and in cluster mode the slot rules: a keyed command must hit
// one slot this node owns and is not moving, a keyspace walk needs a
// stable slot map — and then runs the row's handler.
func (s *server) execute(w *resp.Writer, c *command, args [][]byte, cs *connState) (quit, monitor, isErr bool) {
	switch {
	case c == nil:
		return fail(w, fmt.Sprintf("ERR unknown command '%s'", strings.ToUpper(string(args[0]))))
	case !c.arityOK(len(args)):
		return wrongArity(w, c.name)
	case s.clus != nil && s.clusterRefuses(w, c, args):
		return false, false, true
	}
	return c.handler(s, w, args, cs)
}

// PING, ECHO and QUIT are pure protocol: no engine, no keys, a reply
// straight into the write buffer.
func (s *server) pingCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	w.WriteSimple("PONG")
	return false, false, false
}

func (s *server) echoCmd(w *resp.Writer, args [][]byte, _ *connState) (quit, monitor, isErr bool) {
	w.WriteBulk(args[1])
	return false, false, false
}

func (s *server) quitCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	w.WriteSimple("OK")
	return true, false, false
}

// doKeys runs a multi-key command as the N single-key requests it is
// defined as: one op Req per key (step 2: key/value pairs, MSET's
// layout) from the connection's slab — free here, because dispatch runs
// after flushPending — executed together by Cluster.DoBatch. ok is
// false when the op gate refused the command (cluster mode: the caller
// answers TRYAGAIN); otherwise each request's outcome is noted in
// cs.outs.
func (s *server) doKeys(cs *connState, op shard.OpKind, args [][]byte, step int) (reqs []*shard.Req, ok bool) {
	for i := 1; i < len(args); i += step {
		r := cs.nextReq()
		r.Kind, r.Key, r.Value, r.Out = op, args[i], nil, addrkv.OpOutcome{}
		if step == 2 {
			r.Value = args[i+1]
		}
	}
	reqs, cs.used = cs.reqs[:cs.used], 0
	s.opsSinceMark.Add(uint64(len(reqs)))
	if !s.sys.Cluster().DoBatch(reqs) {
		return nil, false
	}
	for _, r := range reqs {
		cs.outs = append(cs.outs, r.Out)
	}
	return reqs, true
}

// delCmd is DEL of several keys. (One key rides the ring, so it can
// carry a span.)
func (s *server) delCmd(w *resp.Writer, args [][]byte, cs *connState) (quit, monitor, isErr bool) {
	reqs, ok := s.doKeys(cs, shard.OpDelete, args, 1)
	if !ok {
		return s.clusterTryAgain(w)
	}
	n := 0
	for _, r := range reqs {
		if r.OK {
			n++
		}
	}
	w.WriteInt(int64(n))
	return false, false, false
}

func (s *server) mgetCmd(w *resp.Writer, args [][]byte, cs *connState) (quit, monitor, isErr bool) {
	reqs, ok := s.doKeys(cs, shard.OpGet, args, 1)
	if !ok {
		return s.clusterTryAgain(w)
	}
	w.WriteArrayHeader(len(reqs))
	for _, r := range reqs {
		writeGet(w, r)
	}
	return false, false, false
}

func (s *server) msetCmd(w *resp.Writer, args [][]byte, cs *connState) (quit, monitor, isErr bool) {
	if _, ok := s.doKeys(cs, shard.OpSet, args, 2); !ok {
		return s.clusterTryAgain(w)
	}
	w.WriteSimple("OK")
	return false, false, false
}

// scanCmd is SCAN cursor [MATCH pat] [COUNT n]: one stateless page of
// an ordered cursor walk. MATCH filters server-side after the page is
// scanned — COUNT bounds keys SCANNED, not keys returned, and the
// continuation cursor follows the last scanned key so a page of
// non-matching keys still makes progress.
func (s *server) scanCmd(w *resp.Writer, args [][]byte, cs *connState) (quit, monitor, isErr bool) {
	if len(args) > 6 || len(args)%2 != 0 {
		return wrongArity(w, "scan")
	}
	count := defaultScanCount
	var pattern []byte
	for i := 2; i+1 < len(args); i += 2 {
		switch {
		case strings.EqualFold(string(args[i]), "count"):
			v, err := strconv.Atoi(string(args[i+1]))
			if err != nil || v < 1 {
				return fail(w, "ERR COUNT must be a positive integer")
			}
			count = v
		case strings.EqualFold(string(args[i]), "match"):
			pattern = args[i+1]
		default:
			return fail(w, "ERR syntax error")
		}
	}
	after, resume, err := addrkv.ParseCursor(args[1], nil)
	if err != nil {
		return fail(w, "ERR invalid cursor")
	}
	s.opsSinceMark.Add(1)
	var keys [][]byte
	var last []byte
	n, err := s.sys.ScanO(addrkv.ScanStart(after, resume, nil), count, func(k []byte) bool {
		last = k
		if pattern == nil || addrkv.MatchGlob(pattern, k) {
			keys = append(keys, k)
		}
		return true
	}, &cs.outs)
	if err != nil {
		return fail(w, "ERR SCAN requires an ordered index (-index rbtree or btree)")
	}
	w.WriteArrayHeader(2)
	if n == count {
		w.WriteBulk(addrkv.AppendCursor(nil, last))
	} else {
		// A short page proves the walk reached the end of the
		// keyspace: the terminal cursor.
		w.WriteBulkString("0")
	}
	w.WriteBulkArray(keys)
	return false, false, false
}

// rangeCmd is RANGE start end [limit]: ordered key/value pairs, bounds
// inclusive; "-" starts at the smallest key, "+" is unbounded above.
// Replies a flat [k1, v1, k2, v2, ...] array.
func (s *server) rangeCmd(w *resp.Writer, args [][]byte, cs *connState) (quit, monitor, isErr bool) {
	if len(args) > 4 {
		return wrongArity(w, "range")
	}
	limit := 0
	if len(args) == 4 {
		v, err := strconv.Atoi(string(args[3]))
		if err != nil || v < 1 {
			return fail(w, "ERR limit must be a positive integer")
		}
		limit = v
	}
	start, end := args[1], args[2]
	if len(start) == 1 && start[0] == '-' {
		start = nil
	}
	if len(end) == 1 && end[0] == '+' {
		end = nil
	}
	s.opsSinceMark.Add(1)
	var flat [][]byte
	_, err := s.sys.RangeO(start, end, limit, func(k, v []byte) bool {
		flat = append(flat, k, v)
		return true
	}, &cs.outs)
	if err != nil {
		return fail(w, "ERR RANGE requires an ordered index (-index rbtree or btree)")
	}
	w.WriteBulkArray(flat)
	return false, false, false
}

func (s *server) dbsizeCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	w.WriteInt(int64(s.sys.Len()))
	return false, false, false
}

func (s *server) infoCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	w.WriteBulk([]byte(renderText(s.view(), onInfo)))
	return false, false, false
}

func (s *server) resetstatsCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	s.statsMu.Lock()
	s.sys.MarkMeasurement()
	s.opsSinceMark.Store(0)
	s.tele.resetWindow()
	s.statsMu.Unlock()
	// A measurement mark means the caches should be warm from here
	// on: arm the page_walk_warm flight-recorder trigger.
	s.tracer.SetWarm(true)
	w.WriteSimple("OK")
	return false, false, false
}

func (s *server) flushallCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	release, gerr := s.clusterFlushGuard()
	if gerr != nil {
		return fail(w, fmt.Sprintf("ERR flushall: %v", gerr))
	}
	s.statsMu.Lock()
	err := s.sys.Reset()
	if err == nil {
		s.opsSinceMark.Store(0)
		s.tele.resetWindow()
	}
	s.statsMu.Unlock()
	release()
	if err != nil {
		return fail(w, fmt.Sprintf("ERR flushall: %v", err))
	}
	s.tracer.SetWarm(false) // fresh engines start cold again
	w.WriteSimple("OK")
	return false, false, false
}

func (s *server) askingCmd(w *resp.Writer, _ [][]byte, cs *connState) (quit, monitor, isErr bool) {
	if s.clus == nil {
		return fail(w, "ERR This instance has cluster support disabled")
	}
	cs.asking = true
	s.clus.node.Metrics.Asking.Add(1)
	w.WriteSimple("OK")
	return false, false, false
}

func (s *server) monitorCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	if s.closing.Load() {
		return fail(w, "ERR server shutting down")
	}
	w.WriteSimple("OK")
	return false, true, false
}

// slowlogCmd handles SLOWLOG GET [n] / RESET / LEN. Each GET entry is
// a 7-element array: id, unix seconds, duration in microseconds, the
// (truncated) argument array, home shard, modeled cycles, and the
// addressing-path breakdown string.
func (s *server) slowlogCmd(w *resp.Writer, args [][]byte, _ *connState) (quit, monitor, isErr bool) {
	switch strings.ToLower(string(args[1])) {
	case "get":
		n := 10
		if len(args) == 3 {
			v, err := strconv.Atoi(string(args[2]))
			if err != nil || v < -1 {
				return fail(w, "ERR invalid slowlog count")
			}
			n = v // -1 and 0 mean "all", like Redis
		} else if len(args) > 3 {
			return wrongArity(w, "slowlog get")
		}
		entries := s.tele.slowlog.Entries(n)
		w.WriteArrayHeader(len(entries))
		for _, e := range entries {
			w.WriteArrayHeader(7)
			w.WriteInt(e.ID)
			w.WriteInt(e.UnixMicro / 1e6)
			w.WriteInt(e.Duration.Microseconds())
			w.WriteArrayHeader(len(e.Args))
			for _, a := range e.Args {
				w.WriteBulkString(a)
			}
			w.WriteInt(int64(e.Shard))
			w.WriteInt(int64(e.Cycles))
			w.WriteBulkString(e.Detail)
		}
	case "reset":
		s.tele.slowlog.Reset()
		w.WriteSimple("OK")
	case "len":
		w.WriteInt(int64(s.tele.slowlog.Len()))
	default:
		return fail(w, fmt.Sprintf("ERR unknown SLOWLOG subcommand '%s'", args[1]))
	}
	return false, false, false
}

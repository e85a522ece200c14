// Worker-runtime dispatch for kvserve: connection goroutines classify
// single-key commands, enqueue them on their home shard's request
// ring, and write replies when the shard's owning worker completes
// them. Commands that cannot run asynchronously (multi-key batches,
// INFO, admin) act as ordering barriers: every pending reply is
// flushed first, so each connection's replies always arrive in command
// order.
//
// The steady-state path is allocation-free: each connection reuses a
// slab of shard.Req slots (their Val buffers double as pooled reply
// buffers for GET), the pending window is a reused slice, and the
// telemetry path formats nothing unless the slowlog would record it.
package main

import (
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
	"addrkv/internal/trace"
)

// pending is one enqueued async command awaiting completion: the
// request slot, the canonical command name (a constant, so observing
// it allocates nothing), the raw args (valid until the next pipeline
// read — consumed before that), and the span/start for telemetry.
type pending struct {
	req   *shard.Req
	cmd   string
	args  [][]byte
	start time.Time
	sp    *trace.Op
}

// asciiLowerEq reports whether b equals the lowercase ASCII string s,
// ignoring letter case in b, without allocating. s must be lowercase.
func asciiLowerEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b[i]|0x20 != s[i] {
			return false
		}
	}
	return true
}

// asyncKind classifies a command for worker dispatch: single-key
// GET/SET/EXISTS/DEL with correct arity run asynchronously on the
// shard worker; everything else (including wrong-arity forms, which
// must produce their error reply in order) goes through the
// synchronous dispatch path.
func asyncKind(args [][]byte) (shard.OpKind, string, bool) {
	c := args[0]
	switch len(c) {
	case 3:
		switch {
		case asciiLowerEq(c, "get") && len(args) == 2:
			return shard.OpGet, "get", true
		case asciiLowerEq(c, "set") && len(args) == 3:
			return shard.OpSet, "set", true
		case asciiLowerEq(c, "del") && len(args) == 2:
			return shard.OpDelete, "del", true
		}
	case 6:
		if asciiLowerEq(c, "exists") && len(args) == 2 {
			return shard.OpExists, "exists", true
		}
	}
	return 0, "", false
}

// nextReq hands out the connection's next request slot, reusing the
// slab (pointer slice: addresses stay stable as it grows, and each
// slot's Val buffer stays warm across uses).
func (cs *connState) nextReq() *shard.Req {
	if cs.used < len(cs.reqs) {
		r := cs.reqs[cs.used]
		cs.used++
		return r
	}
	r := shard.NewReq()
	cs.reqs = append(cs.reqs, r)
	cs.used++
	return r
}

// enqueueAsync routes one classified single-key command to its shard
// worker and appends it to the connection's pending window. The key
// and value slices alias the reader's arena; the engine copies them
// into simulated memory before the pending window is flushed, which
// happens before the arena's next reuse.
func (s *server) enqueueAsync(cs *connState, kind shard.OpKind, cmd string, args [][]byte) {
	start := time.Now()
	req := cs.nextReq()
	req.Kind = kind
	req.Key = args[1]
	req.Value = nil
	if kind == shard.OpSet {
		req.Value = args[2]
	}
	var sp *trace.Op
	if every := s.tracer.Sample(); every != 0 {
		cs.ops++
		if cs.ops%every == 0 {
			sp = s.tracer.BeginSampled(cmd, args[1])
			sp.Conn = cs.id
			sp.EventRel(trace.EvDispatch, 0, 0, 0, 0)
		}
	}
	req.Out = addrkv.OpOutcome{Shard: -1, Trace: sp}
	if s.clus != nil {
		req.Out.Bypass = s.clusterConsumeAsking(cs, args)
	}
	s.opsSinceMark.Add(1)
	s.sys.Cluster().Enqueue(req)
	cs.pend = append(cs.pend, pending{req: req, cmd: cmd, args: args, start: start, sp: sp})
}

// flushPending waits for every pending request in submission order,
// writes its reply, and records its telemetry. On a write error the
// remaining requests are still awaited (their slots must not be reused
// while a worker may complete them) and observed; the first error is
// returned.
func (s *server) flushPending(w *resp.Writer, cs *connState) error {
	if len(cs.pend) == 0 {
		return nil
	}
	var werr error
	for i := range cs.pend {
		p := &cs.pend[i]
		r := p.req
		r.Wait()
		if p.sp != nil {
			p.sp.EventRel(trace.EvReplyFlush, p.sp.Cycles, 0, 0, 0)
			s.tracer.Finish(p.sp, r.Out.Shard, r.Out.FastHit, r.Out.Missed)
		}
		if werr == nil {
			switch {
			case r.Out.Denied:
				// Cluster mode: the shard gate refused the op (slot not
				// served here as of execution time) — the reply is the
				// redirect, resolved against the current slot view.
				werr = w.WriteError(s.clusterRedirectMsg(r.Key))
			case r.Kind == shard.OpGet:
				if r.OK {
					werr = w.WriteBulk(r.Val)
				} else {
					werr = w.WriteBulk(nil)
				}
			case r.Kind == shard.OpSet:
				werr = w.WriteSimple("OK")
			case r.Kind == shard.OpDelete, r.Kind == shard.OpExists:
				if r.OK {
					werr = w.WriteInt(1)
				} else {
					werr = w.WriteInt(0)
				}
			}
		}
		s.tele.observeCmd(p.cmd, p.args, &r.Out, nil, time.Since(p.start), r.Out.Denied)
		if s.tele.feed.Active() {
			s.tele.feed.Publish(monitorLine(p.args, r.Out.Shard))
		}
	}
	cs.pend = cs.pend[:0]
	cs.used = 0
	return werr
}

// startWorkers brings up the per-shard worker runtime and wires its
// drain-size observations into the metrics registry.
func (s *server) startWorkers(queueCap int) error {
	c := s.sys.Cluster()
	c.SetDrainObserver(func(_, burst int) {
		s.tele.drainSize.Observe(uint64(burst))
	})
	if err := c.StartWorkers(queueCap); err != nil {
		return err
	}
	s.workers = true
	s.queueCap = queueCap
	if s.queueCap <= 0 {
		s.queueCap = shard.DefaultQueueCap
	}
	return nil
}

// stopWorkers tears the runtime down; callers must have drained every
// connection first (no producers while the rings empty out).
func (s *server) stopWorkers() {
	if s.workers {
		s.sys.Cluster().StopWorkers()
	}
}

// runtimeInfo renders the INFO "# runtime" section: ring sizing and
// the aggregate worker counters when running.
func (s *server) runtimeInfo(add func(format string, args ...any)) {
	add("# runtime\r\n")
	add("queue_cap:%d\r\n", s.queueCap)
	ws := s.sys.Cluster().RuntimeStats()
	if ws == nil {
		return
	}
	var depth int
	var drains, dops, spins, maxBurst uint64
	for _, st := range ws {
		depth += st.Depth
		drains += st.Drains
		dops += st.DrainedOps
		spins += st.FullSpins
		if st.MaxBurst > maxBurst {
			maxBurst = st.MaxBurst
		}
	}
	add("queue_depth:%d\r\n", depth)
	add("worker_drains:%d\r\n", drains)
	add("worker_drained_ops:%d\r\n", dops)
	mean := 0.0
	if drains > 0 {
		mean = float64(dops) / float64(drains)
	}
	add("drain_mean:%.2f\r\n", mean)
	add("drain_max:%d\r\n", maxBurst)
	add("queue_full_spins:%d\r\n", spins)
}

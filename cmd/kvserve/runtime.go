// The single-key route of kvserve: every one-key form of a ring verb in
// the command table (GET, SET, DEL, EXISTS, EXPIRE, PEXPIRE, TTL, PTTL)
// becomes a shard.Req built from its row, is handed to the key's home
// shard, and joins the connection's pending window; flushPending
// collects the window in command order and is the one place that
// writes a single-key reply — or the redirect, when the shard's op
// gate denied the op — closes its span and records its telemetry.
// Every other command is an ordering barrier (see commands.go): the
// window is flushed before it runs, so each connection's replies
// always arrive in command order.
//
// Where the Req executes is the shard package's business, not this
// file's: main starts the per-shard worker runtime, so Enqueue puts it
// on the shard's ring and the owning worker completes it; a server on
// which startWorkers was never called — the reference model of the
// worker-vs-reference differential tests — gets it executed in place,
// lock per op, by the same call.
//
// The steady-state path is allocation-free: each connection reuses a
// slab of shard.Req slots (their Val buffers double as pooled reply
// buffers for GET), the pending window is a reused slice, and the
// telemetry path formats nothing unless the slowlog would record it.
package main

import (
	"strconv"
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
	"addrkv/internal/trace"
)

// pending is one single-key command of the window: its row, the
// request slot (nil when the command was refused before it reached a
// shard), the raw args (valid until the next pipeline read — consumed
// before that), and the span/start for telemetry.
type pending struct {
	req   *shard.Req
	cmd   *command
	args  [][]byte
	start time.Time
	sp    *trace.Op
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

// enqueue sends one single-key command (c.rides held) to its key's
// home shard and appends it to the connection's pending window. The
// key and value slices alias the reader's arena; the engine copies
// them into simulated memory before the pending window is flushed,
// which happens before the arena's next reuse.
func (s *server) enqueue(cs *connState, c *command, args [][]byte) {
	start := time.Now()
	key := args[c.first]
	bypass := s.clus != nil && s.clusterConsumeAsking(cs, key)
	var deadline int64
	if c.op == shard.OpExpireAt {
		n, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil {
			// Refused here; flushPending answers it in command order.
			cs.pend = append(cs.pend, pending{cmd: c, args: args, start: start})
			return
		}
		// Clamp so now+n*unit cannot overflow; a deadline centuries out
		// is indistinguishable from the clamp.
		if lim := int64(1) << 62 / c.unit; n > lim {
			n = lim
		} else if n < -lim {
			n = -lim
		}
		deadline = s.sys.Now() + n*c.unit
	}
	req := cs.nextReq()
	req.Kind, req.Key, req.Value, req.Deadline = c.op, key, nil, deadline
	if c.op == shard.OpSet {
		req.Value = args[2]
	}
	// The one place an op span begins: the connection's own counter
	// against the shared rate, so an unsampled op costs one atomic
	// load and never writes a shared cache line. A sampled op's span
	// opens with dispatch here, collects the shard's events while the
	// op runs under its shard lock (via Out.Trace), and is closed by
	// flushPending with reply.flush.
	var sp *trace.Op
	if s.tracer.Sampled(&cs.ops) {
		sp = s.tracer.BeginSampled(c.name, key)
		sp.Conn = cs.id
		sp.EventRel(trace.EvDispatch, 0, 0, 0, 0)
	}
	req.Out = addrkv.OpOutcome{Shard: -1, Trace: sp, Bypass: bypass}
	s.opsSinceMark.Add(1)
	s.sys.Cluster().Enqueue(req)
	cs.pend = append(cs.pend, pending{req: req, cmd: c, args: args, start: start, sp: sp})
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
		if r == nil { // EXPIRE/PEXPIRE whose integer did not parse
			if werr == nil {
				werr = w.WriteError("ERR value is not an integer or out of range")
			}
			s.tele.observeCmd(p.cmd, p.args, nil, time.Since(p.start), true)
			continue
		}
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
				werr = writeGet(w, r)
			case r.Kind == shard.OpSet:
				werr = w.WriteSimple("OK")
			case r.Kind == shard.OpDelete, r.Kind == shard.OpExists:
				if r.OK {
					werr = w.WriteInt(1)
				} else {
					werr = w.WriteInt(0)
				}
			case r.Kind == shard.OpExpireAt:
				werr = w.WriteInt(r.N)
			case r.Kind == shard.OpTTL:
				n := r.N // -2 absent, -1 present without a deadline
				if n >= 0 {
					n = (n + p.cmd.unit - 1) / p.cmd.unit // round up: 1ns left is still alive
				}
				werr = w.WriteInt(n)
			}
		}
		one := [1]addrkv.OpOutcome{r.Out}
		s.tele.observeCmd(p.cmd, p.args, one[:], time.Since(p.start), r.Out.Denied)
	}
	cs.pend = cs.pend[:0]
	cs.used = 0
	return werr
}

// writeGet writes a GET's reply: the value, or a null bulk for a miss.
// A found empty value is "$0" even when it was read into a Val buffer
// that was never grown (nil).
func writeGet(w *resp.Writer, r *shard.Req) error {
	switch {
	case !r.OK:
		return w.WriteBulk(nil)
	case r.Val == nil:
		return w.WriteBulk([]byte{})
	}
	return w.WriteBulk(r.Val)
}

// startWorkers brings up the per-shard worker runtime and wires its
// drain-size observations into the metrics registry.
func (s *server) startWorkers() error {
	c := s.sys.Cluster()
	c.SetDrainObserver(func(_, burst int) {
		s.tele.drainSize.Observe(uint64(burst))
	})
	if err := c.StartWorkers(shard.DefaultQueueCap); err != nil {
		return err
	}
	s.queueCap = shard.DefaultQueueCap
	return nil
}

// stopWorkers tears the runtime down; callers must have drained every
// connection first (no producers while the rings empty out).
func (s *server) stopWorkers() { s.sys.Cluster().StopWorkers() }

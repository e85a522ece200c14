package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"addrkv"
	"addrkv/internal/kv"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
	"addrkv/internal/wal"
	"addrkv/internal/ycsb"
)

// The ledger is an in-process replica of kvserve's request path,
// assembled from the layers' public functions and replayed over a prefix
// of a workload's op stream at that workload's burst depth, with a span
// recorded around each call. It prices each layer from outside; probes
// inside the program are a later change.

// step names a span. Spans of one burst share its id; the root of a
// burst is stepBurst and every other step of the burst is its child.
type step uint8

const (
	stepBurst step = iota
	stepNext
	stepEncode
	stepParse
	stepStreamParse
	stepRoute
	stepGet
	stepSet
	stepAppend
	stepCommit
	stepReply
	stepVerify
	stepEngine
	stepMutex
	stepWorker
	numSteps
)

var stepNames = [numSteps]string{
	"burst", "ycsb.next", "loadgen.encode", "resp.parse", "resp.stream_parse", "shard.route",
	"kv.get", "kv.set", "wal.append", "wal.commit", "resp.reply", "loadgen.verify",
	"kv.engine", "shard.mutex", "shard.worker",
}

func (s step) MarshalJSON() ([]byte, error) { return json.Marshal(stepNames[s]) }

// span is one timed call: nanoseconds since the tracer started, and the
// index of the span that caused it (-1 for a burst root).
type span struct {
	Burst  int32 `json:"burst"`
	Name   step  `json:"name"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	Parent int32 `json:"parent"`
}

// probe is what the replica reports each call to: the tracer records a
// span, the allocation counter charges heap objects to the step.
type probe interface {
	begin(burst int32, s step, parent int32) int32
	end(id int32)
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(burst int32, s step, parent int32) int32 {
	t.spans = append(t.spans, span{Burst: burst, Name: s, Parent: parent, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.t0)) }

// stepTotals is the arithmetic over spans: per step, how many spans, and
// their self time, which is a span's duration minus the part of it its
// children cover.
type stepTotals struct {
	count [numSteps]int64
	self  [numSteps]int64
}

func selfTimes(spans []span) stepTotals {
	var t stepTotals
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		t.count[s.Name]++
		t.self[s.Name] += s.End - s.Start - children[i]
	}
	return t
}

// per returns step s's self time divided by n.
func (t stepTotals) per(s step, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(t.self[s]) / float64(n)
}

// writeTrace writes one burst in 64 as JSON.
func writeTrace(path string, spans []span) error {
	var keep []span
	for _, s := range spans {
		if s.Burst%64 == 0 {
			keep = append(keep, s)
		}
	}
	b, err := json.Marshal(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{"one burst in 64; times are ns since the pass began; parent is an index into the full span list, kept here as recorded", keep})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// allocCounter charges heap allocations to steps. It reads
// runtime.MemStats, which stops the world to flush every thread's
// cached counts: exact, and far dearer than a span, so it runs over a
// short stretch after the timed passes.
type allocCounter struct {
	mem     runtime.MemStats
	open    []uint64
	openFor []step
	objects [numSteps]uint64
}

func (a *allocCounter) now() uint64 {
	runtime.ReadMemStats(&a.mem)
	return a.mem.Mallocs
}

func (a *allocCounter) begin(_ int32, s step, _ int32) int32 {
	a.openFor = append(a.openFor, s)
	a.open = append(a.open, a.now())
	return int32(len(a.open) - 1)
}

func (a *allocCounter) end(id int32) {
	a.objects[a.openFor[id]] += a.now() - a.open[id]
	if int(id) == len(a.open)-1 { // spans close innermost first
		a.open, a.openFor = a.open[:id], a.openFor[:id]
	}
}

// feeder hands the replica's encoded bursts to resp.Reader as a
// connection would.
type feeder struct{ buf []byte }

func (f *feeder) Read(p []byte) (int, error) {
	if len(f.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	return n, nil
}

// replica is the request path of one connection at a time: generator,
// encoder, RESP reader, engines, logs, RESP writer, verifier.
type replica struct {
	w      workload
	sys    *addrkv.System
	stream *stream
	feed   feeder
	rd     *resp.Reader
	st     *resp.Stream
	out    bytes.Buffer
	wr     *resp.Writer
	logs   []*wal.Log

	ops     []op
	wbuf    []byte
	vals    [][]byte
	found   []bool
	shards  []int
	replies *bufio.Reader
	scratch []byte

	// The isolation passes' request slots and rendered keys.
	reqs []*shard.Req
	keys [][ycsb.KeyLen]byte

	walCounters
	wrong int64
}

// walCounters is what the replica's own log calls added up to.
type walCounters struct {
	appends, appendBytes int64
	fsyncs, fsyncNS      int64
}

func newReplica(w workload, seed uint64, sys *addrkv.System, logs []*wal.Log) *replica {
	r := &replica{w: w, sys: sys, stream: newStream(w, seed), logs: logs, st: resp.NewStream()}
	r.rd = resp.NewReader(&r.feed)
	r.wr = resp.NewWriter(&r.out)
	r.replies = bufio.NewReader(&r.out)
	r.vals = make([][]byte, w.depth)
	r.found = make([]bool, w.depth)
	r.keys = make([][ycsb.KeyLen]byte, w.depth)
	for i := 0; i < w.depth; i++ {
		r.reqs = append(r.reqs, shard.NewReq())
	}
	for _, l := range logs {
		l.SetFsyncObserver(func(ns int64) { r.fsyncs++; r.fsyncNS += ns })
	}
	return r
}

// burst runs one burst through the whole path, calling the engines
// directly: the path pass, whose spans are the ledger.
func (r *replica) burst(p probe, id int32) error {
	c := r.sys.Cluster()
	root := p.begin(id, stepBurst, -1)

	sp := p.begin(id, stepNext, root)
	r.ops = r.ops[:0]
	for i := 0; i < r.w.depth; i++ {
		r.ops = append(r.ops, r.stream.next())
	}
	p.end(sp)

	sp = p.begin(id, stepEncode, root)
	r.wbuf = r.wbuf[:0]
	for _, o := range r.ops {
		r.wbuf = appendCommand(r.wbuf, o)
	}
	p.end(sp)

	r.feed.buf = r.wbuf
	r.out.Reset()
	touched := [2]bool{}
	for done := 0; done < len(r.ops); {
		sp = p.begin(id, stepParse, root)
		cmds, err := r.rd.ReadPipelineReuse(0)
		p.end(sp)
		if err != nil {
			return fmt.Errorf("ledger: parse: %w", err)
		}

		sp = p.begin(id, stepRoute, root)
		r.shards = r.shards[:0]
		for _, args := range cmds {
			r.shards = append(r.shards, c.ShardFor(args[1]))
		}
		p.end(sp)

		for i, args := range cmds {
			e := c.Engine(r.shards[i])
			if len(args) == 3 {
				sp = p.begin(id, stepSet, root)
				e.Set(args[1], args[2])
				p.end(sp)
			} else {
				sp = p.begin(id, stepGet, root)
				r.vals[done+i], r.found[done+i] = e.GetInto(args[1], r.vals[done+i][:0])
				p.end(sp)
			}
		}

		if r.logs != nil {
			sp = p.begin(id, stepAppend, root)
			for i, args := range cmds {
				if len(args) == 3 {
					r.appendBytes += int64(r.logs[r.shards[i]].Append(wal.RecSet, args[1], args[2]))
					r.appends++
					touched[r.shards[i]] = true
				}
			}
			p.end(sp)
		}

		sp = p.begin(id, stepReply, root)
		for i, args := range cmds {
			if len(args) == 3 {
				err = r.wr.WriteSimple("OK")
			} else if !r.found[done+i] {
				err = r.wr.WriteBulk(nil)
			} else {
				err = r.wr.WriteBulk(r.vals[done+i])
			}
			if err != nil {
				return err
			}
		}
		p.end(sp)
		done += len(cmds)
	}

	if r.logs != nil {
		// Group commit: one write and one fsync per shard the burst
		// touched, as the worker's drain does.
		sp = p.begin(id, stepCommit, root)
		for i, t := range touched {
			if t {
				if err := r.logs[i].Commit(); err != nil {
					return err
				}
			}
		}
		p.end(sp)
	}

	sp = p.begin(id, stepReply, root)
	err := r.wr.Flush()
	p.end(sp)
	if err != nil {
		return err
	}

	sp = p.begin(id, stepVerify, root)
	r.replies.Reset(&r.out)
	for _, o := range r.ops {
		rep, err := readReply(r.replies, &r.scratch)
		if err != nil || verify(o, rep) != nil {
			r.wrong++
		}
	}
	p.end(sp)

	// The event-loop front-end's parser, fed the same bytes. It is not
	// on the default request path; its span prices the alternative.
	sp = p.begin(id, stepStreamParse, root)
	copy(r.st.Writable(len(r.wbuf)), r.wbuf)
	r.st.Advance(len(r.wbuf))
	for n := 0; n < len(r.ops); {
		cmds, err := r.st.NextBurst(0)
		if err != nil || len(cmds) == 0 {
			return fmt.Errorf("ledger: stream parse stalled after %d of %d commands: %v", n, len(r.ops), err)
		}
		n += len(cmds)
	}
	p.end(sp)

	p.end(root)
	return nil
}

// dispatchBurst runs one burst's ops, and nothing else, through one way
// of reaching the engines: directly (pass E), under the shard lock (pass
// M), or over the worker rings (pass W). The passes differ in that call
// alone, so M - E and W - E price the lock and the hop.
func (r *replica) dispatchBurst(p probe, id int32, s step) {
	c, reqs := r.sys.Cluster(), r.reqs
	// Keys and values are rendered before the clock starts: on the real
	// path they arrive parsed, which the path pass prices on its own.
	r.ops = r.ops[:0]
	for i := 0; i < r.w.depth; i++ {
		o := r.stream.next()
		r.ops = append(r.ops, o)
		q := reqs[i]
		q.Key = ycsb.KeyNameInto(r.keys[i][:], o.id)
		q.Kind, q.Value = shard.OpGet, nil
		if o.set {
			q.Kind, q.Value = shard.OpSet, o.value()
		}
		q.Out = shard.OpOutcome{Shard: -1}
	}
	root := p.begin(id, stepBurst, -1)
	switch s {
	case stepWorker:
		sp := p.begin(id, s, root)
		for _, q := range reqs {
			c.Enqueue(q)
		}
		for _, q := range reqs {
			q.Wait()
		}
		p.end(sp)
	default:
		// One span per op in both E and M, so that the clock reads
		// cancel in M - E; E's spans carry the op's kind.
		for _, q := range reqs {
			set := q.Kind == shard.OpSet
			switch {
			case s == stepMutex:
				sp := p.begin(id, s, root)
				if set {
					c.SetO(q.Key, q.Value, &q.Out)
				} else {
					q.Val, q.OK = c.GetO(q.Key, &q.Out)
				}
				p.end(sp)
			case set:
				sp := p.begin(id, stepSet, root)
				c.Engine(c.ShardFor(q.Key)).Set(q.Key, q.Value)
				p.end(sp)
			default:
				sp := p.begin(id, stepGet, root)
				q.Val, q.OK = c.Engine(c.ShardFor(q.Key)).GetInto(q.Key, q.Val[:0])
				p.end(sp)
			}
		}
	}
	p.end(root)
	for i, o := range r.ops {
		if !o.set && !o.absent && !bytes.Equal(reqs[i].Val, o.value()) {
			r.wrong++
		}
	}
}

// ledgerResult is what the passes measured.
type ledgerResult struct {
	ops     int64
	spans   []span     // the path pass
	path    stepTotals // the path pass
	e, m, w stepTotals // the isolation passes
	// allocs watched allocBursts bursts of the path pass, engineAllocs as
	// many of pass E; allocOp is the ops in either stretch.
	allocs, engineAllocs *allocCounter
	allocOp              int64
	wal                  walCounters // the path pass's timed part
	stats                kv.Stats    // the path pass's modeled statistics
	// appended counts every record the replica logged, the allocation
	// stretch included; recs is what reopening the logs found.
	appended, recs int64
	recover        time.Duration
}

// allocBursts is how many bursts the allocation counter watches.
const allocBursts = 256

// runLedger replays the ledgerOps prefix four times over identically
// built systems. The path pass runs the whole request path with a span
// around each layer call. Passes E, M and W then run the engine calls
// alone: E calls kv.Engine directly, M goes through Cluster.GetO/SetO,
// W through StartWorkers and Enqueue/Wait. All four must end with
// identical modeled cycles, the repository's determinism contract.
func runLedger(e env, w workload, seed uint64) (*ledgerResult, error) {
	// The worker pass needs the threads kvserve would have.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	bursts := w.ledgerOps / w.depth
	res := &ledgerResult{ops: int64(bursts * w.depth)}

	var logs []*wal.Log
	walDir := filepath.Join(e.work, "ledger-aof")
	if w.aof {
		for i := 0; i < 2; i++ {
			l, _, err := wal.OpenShard(walDir, i, wal.FsyncAlways)
			if err != nil {
				return nil, err
			}
			defer l.Close()
			logs = append(logs, l)
		}
	}

	passes := []step{stepBurst, stepEngine, stepMutex, stepWorker}
	cycles := make([]uint64, len(passes))
	for pass, s := range passes {
		sys, err := buildSystem(w, addrkv.ModeSTLT)
		if err != nil {
			return nil, err
		}
		sys.MarkMeasurement()
		runtime.GC() // no pass pays for the garbage of the one before
		tr := newTracer()
		var r *replica
		if s == stepBurst {
			tr.spans = make([]span, 0, bursts*(14+w.depth))
			r = newReplica(w, seed, sys, logs)
			for b := 0; b < bursts; b++ {
				if err := r.burst(tr, int32(b)); err != nil {
					return nil, err
				}
			}
			res.wal, res.spans, res.path = r.walCounters, tr.spans, selfTimes(tr.spans)
			res.stats = sys.Report().Stats
			cycles[pass] = uint64(res.stats.Machine.Cycles)
			res.allocs = &allocCounter{}
			for b := 0; b < allocBursts; b++ {
				if err := r.burst(res.allocs, int32(b)); err != nil {
					return nil, err
				}
			}
			res.allocOp = int64(allocBursts * w.depth)
			res.appended = r.appends
		} else {
			tr.spans = make([]span, 0, bursts*(1+w.depth))
			r = newReplica(w, seed, sys, nil)
			if s == stepWorker {
				if err := sys.Cluster().StartWorkers(0); err != nil {
					return nil, err
				}
			}
			for b := 0; b < bursts; b++ {
				r.dispatchBurst(tr, int32(b), s)
			}
			cycles[pass] = uint64(sys.Report().Stats.Machine.Cycles)
			switch s {
			case stepEngine:
				res.e = selfTimes(tr.spans)
				res.engineAllocs = &allocCounter{}
				for b := 0; b < allocBursts; b++ {
					r.dispatchBurst(res.engineAllocs, int32(b), s)
				}
			case stepMutex:
				res.m = selfTimes(tr.spans)
			case stepWorker:
				sys.Cluster().StopWorkers()
				res.w = selfTimes(tr.spans)
			}
		}
		if r.wrong > 0 {
			return nil, fmt.Errorf("ledger pass %s: %d replies differ from the model", stepNames[s], r.wrong)
		}
	}
	for _, c := range cycles[1:] {
		if c != cycles[0] {
			return nil, fmt.Errorf("ledger: modeled cycles differ between passes: path=%d E=%d M=%d W=%d", cycles[0], cycles[1], cycles[2], cycles[3])
		}
	}

	if w.aof {
		for _, l := range logs {
			if err := l.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		for i := range logs {
			l, rec, err := wal.OpenShard(walDir, i, wal.FsyncAlways)
			if err != nil {
				return nil, err
			}
			res.recs += int64(len(rec.Snapshot) + len(rec.Tail))
			l.Close()
		}
		res.recover = time.Since(t0)
		if res.recs != res.appended {
			return nil, fmt.Errorf("ledger: log replay found %d records, %d were appended", res.recs, res.appended)
		}
	}
	return res, nil
}

// report turns the ledger into per-layer metrics.
func (l *ledgerResult) report(ms *metricSet) {
	n := l.ops
	path := l.path
	ms.set("ycsb.next_ns_per_op", path.per(stepNext, n))
	ms.set("loadgen.encode_ns_per_op", path.per(stepEncode, n))
	ms.set("resp.parse_ns_per_cmd", path.per(stepParse, n))
	ms.setNote("resp.stream_parse_ns_per_cmd", path.per(stepStreamParse, n), "the -netloop parser on the same bytes; not on the default path")
	ms.set("resp.reply_ns_per_reply", path.per(stepReply, n))
	ms.set("shard.route_ns_per_op", path.per(stepRoute, n))

	engine := float64(l.e.self[stepGet]+l.e.self[stepSet]) / float64(n)
	inPath := float64(path.self[stepGet]+path.self[stepSet]) / float64(n)
	ms.setNote("kv.engine_ns_per_op", engine, fmt.Sprintf("pass E, route included; %.0f ns inside the full path", inPath))
	ms.set("kv.get_ns_per_op", l.e.per(stepGet, l.e.count[stepGet]))
	ms.set("kv.set_ns_per_op", l.e.per(stepSet, l.e.count[stepSet]))
	mutex, worker := l.m.per(stepMutex, n), l.w.per(stepWorker, n)
	ms.set("shard.mutex_ns_per_op", mutex)
	ms.set("shard.worker_ns_per_op", worker)
	ms.setNote("shard.lock_self_ns_per_op", mutex-engine, "M - E")
	ms.setNote("shard.hop_self_ns_per_op", worker-engine, "W - E")

	a := float64(l.allocOp)
	ms.set("kv.engine_allocs_per_op", float64(l.engineAllocs.objects[stepGet]+l.engineAllocs.objects[stepSet])/a)
	ms.set("resp.parse_allocs_per_cmd", float64(l.allocs.objects[stepParse])/a)
	ms.set("resp.reply_allocs_per_reply", float64(l.allocs.objects[stepReply])/a)

	hardware(l.stats, ms)

	if wc := l.wal; wc.appends > 0 {
		ms.set("wal.append_ns_per_rec", path.per(stepAppend, wc.appends))
		ms.set("wal.append_allocs_per_rec", float64(l.allocs.objects[stepAppend])/a)
		ms.set("wal.commit_ns_per_burst", path.per(stepCommit, path.count[stepCommit]))
		ms.set("wal.bytes_per_rec", float64(wc.appendBytes)/float64(wc.appends))
		ms.set("wal.recover_ns_per_rec", float64(l.recover)/float64(l.recs))
		ms.setNote("wal.fsync_mean_us", float64(wc.fsyncNS)/float64(wc.fsyncs)/1e3, "ledger's own log")
		ms.setNote("wal.fsyncs_per_op", float64(wc.fsyncs)/float64(n), "ledger's own log")
	}
}

// walCPUPerOp is the part of the log's cost that is processor time: the
// appends, and the commits without the time they spent blocked in fsync.
func (l *ledgerResult) walCPUPerOp() float64 {
	return float64(l.path.self[stepAppend]+l.path.self[stepCommit]-l.wal.fsyncNS) / float64(l.ops)
}

// Package trace is the per-operation event tracer: a sampling span
// tracer whose traced operations carry an ordered timeline of
// microarchitectural events (STLT set probe, IPB filter, STB hit or
// miss, TLB refill, page-walk levels, index traversal) with both
// modeled-cycle and wall-clock stamps, plus a flight recorder that
// keeps the last N completed traces per shard and dumps a JSON bundle
// when an anomaly trigger fires.
//
// The paper's argument lives in *where cycles go inside one op* — the
// Figure 1 breakdown, the loadVA pipeline of Figure 8, the hit/miss
// flows of Figure 13. Aggregate counters (PR 2's telemetry) cannot
// attribute one slow p99 GET to a page-walk burst vs. a cold STLT set;
// this package can, because every traced op records the exact event
// sequence the simulated hardware executed for it.
//
// Design constraints, in priority order:
//
//  1. The untraced fast path stays bit-for-bit identical: hooks only
//     READ machine counters (cycle stamps), never charge cycles, and
//     every hook site is a single nil-pointer check when the op is
//     unsampled.
//  2. The record path is lock-free: sampling reads one atomic rate
//     against the caller's own counter, completed spans go into
//     per-shard rings of atomic pointers, and event appends happen on
//     a span owned by exactly one goroutine at a time.
//  3. This is a leaf package (standard library only), so every layer
//     from internal/vm to cmd/kvserve can emit into it without import
//     cycles.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind identifies one step of the traced pipeline. The order
// mirrors the op timeline: dispatch → [queue.wait → drain] →
// shard.lock → engine.op →
// stlt.loadva → stlt.probe → ipb.check → stb.{hit|miss} →
// {tlb.refill | walk.level* → page.walk} → index.walk → stlt.insert →
// reply.flush.
type EventKind uint8

// Event kinds. Each carries up to three small integer arguments whose
// meaning is kind-specific (documented per constant).
const (
	// EvDispatch marks the RESP front-end picking the command off the
	// wire. No cycle stamp (the simulated machine is not chosen yet).
	EvDispatch EventKind = iota
	// EvQueueWait marks a worker dequeuing the op from its shard's
	// request ring (worker dispatch mode); A = shard, B = position in
	// the drained burst, C = burst size. The wall delta from dispatch
	// is the time the op sat queued behind its shard's worker.
	EvQueueWait
	// EvDrain marks the op executing inside a worker drain burst —
	// one shard-lock critical section shared by every op of the burst;
	// A = burst size, B = position within it.
	EvDrain
	// EvShardLock marks the home shard's lock acquisition; A = shard.
	// The wall delta from dispatch is the lock wait plus routing.
	EvShardLock
	// EvEngineOp marks entry into the engine's op body.
	EvEngineOp
	// EvLoadVA marks the start of a loadVA instruction; A = STLT set.
	EvLoadVA
	// EvSTLTProbe marks the end of the STLT set scan; A = set,
	// B = matching way (-1 for a miss), C = sub-integer tag.
	EvSTLTProbe
	// EvIPBCheck marks the IPB CAM filter on a probe hit; A = 1 when
	// the hit was rejected (page recently invalidated), 0 when passed;
	// B = the checked virtual page number.
	EvIPBCheck
	// EvSTBHit marks a TLB miss served by the STB; A = VPN, B = STB
	// entry index.
	EvSTBHit
	// EvSTBMiss marks a TLB miss that also missed the STB; A = VPN.
	EvSTBMiss
	// EvTLBRefill marks the TLB fill after an STB hit or a completed
	// walk; A = VPN.
	EvTLBRefill
	// EvWalkLevel marks one radix level of a page walk; A = level
	// (4 = root .. 1 = leaf), B = 1 when this level is the leaf.
	EvWalkLevel
	// EvPageWalk marks a completed page walk; A = levels walked,
	// B = walk cycles.
	EvPageWalk
	// EvIndexWalk marks the end of a slow-path index traversal
	// (Get/Put/Delete on the real structure); A = 1 found/0 absent.
	EvIndexWalk
	// EvSTLTInsert marks an insertSTLT; A = set, B = victim way
	// (-1 when the SPTW dropped the insert on a page fault).
	EvSTLTInsert
	// EvSTLTScrub marks a full-table scrub (IPB overflow slow path);
	// A = sets scrubbed.
	EvSTLTScrub
	// EvReplyFlush marks the reply leaving the server's write buffer.
	EvReplyFlush
	// EvWALAppend marks the op's mutation record entering the shard's
	// append-only log buffer (under the shard lock, after the engine
	// op); A = encoded frame bytes. Appends charge no modeled cycles —
	// persistence is front-end work, like routing.
	EvWALAppend
	// EvWALFsync marks the group-commit barrier that made the op's
	// record durable (fsync always policy); A = fsync wall ns,
	// B = records covered by the barrier. Emitted after the engine
	// section ends, so its cycle stamp equals the op's total.
	EvWALFsync
	// EvSTLTRewarm marks a migration batch re-warming the destination
	// node's STLT from freshly installed records (the paper's
	// insertSTLT() step of the record-move protocol, replayed per
	// migrated record); A = records installed, B = STLT rows warmed,
	// C = the hash slot being migrated. Installation is functional, so
	// the cycle stamp is always 0 — the span's wall time is the
	// re-warm cost.
	EvSTLTRewarm

	// EvExpire marks a lazy or sweep expiry removing a dead key:
	// A = the key's deadline (unix ns), B = 1 when found by the active
	// sweep, 0 when found lazily on access. The removal itself is
	// untimed maintenance, so the span's interest is the churn count.
	EvExpire
	// EvEvict marks a maxmemory LFU eviction: A = the victim's LFU
	// counter at eviction, B = bytes reclaimed. Like EvExpire the
	// removal is untimed; the event makes eviction churn (and its STLT
	// hit-rate impact) visible in traces.
	EvEvict
	// EvMigProgress marks one shipped slot-migration batch on the
	// source node: A = records shipped so far this run, B = records in
	// the run's work list, C = the hash slot. Shipping is front-end
	// work, so the cycle stamp is always 0; the span's wall time is
	// the batch round-trip plus extraction.
	EvMigProgress

	// NumEventKinds bounds the kind space (for per-kind counters).
	NumEventKinds = int(EvMigProgress) + 1
)

var kindNames = [NumEventKinds]string{
	"dispatch", "queue.wait", "drain", "shard.lock", "engine.op",
	"stlt.loadva", "stlt.probe", "ipb.check", "stb.hit", "stb.miss",
	"tlb.refill", "walk.level", "page.walk", "index.walk", "stlt.insert",
	"stlt.scrub", "reply.flush", "wal.append", "wal.fsync", "stlt.rewarm",
	"expire", "evict", "mig.progress",
}

// String returns the stable wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a wire name back to its kind.
func KindByName(s string) (EventKind, bool) {
	for i, n := range kindNames {
		if n == s {
			return EventKind(i), true
		}
	}
	return 0, false
}

// Event is one point on a traced op's timeline. Cycles is the modeled
// cycle counter relative to the span's base (the machine's counter
// when the op entered its home shard), so the delta between
// consecutive events is the modeled cost of the step that ended at
// this event. WallNS is real time since the span began.
type Event struct {
	Kind   EventKind `json:"kind"`
	Cycles uint64    `json:"cycles"`
	WallNS int64     `json:"wall_ns"`
	A      int64     `json:"a,omitempty"`
	B      int64     `json:"b,omitempty"`
	C      int64     `json:"c,omitempty"`
}

// Op is one traced operation: identity, the event timeline, and the
// final outcome. An Op is written by exactly one goroutine at a time
// (the dispatcher, then the shard-lock holder, then the dispatcher
// again) and becomes immutable once pushed into a ring.
type Op struct {
	ID    uint64 `json:"id"`
	Shard int    `json:"shard"`
	// Conn is the front-end connection that issued the op (0 for a
	// span no connection began, such as a migration record).
	Conn int64  `json:"conn,omitempty"`
	Name string `json:"op"`
	Key  string `json:"key,omitempty"`
	// StartUnixNS anchors the span on the wall clock.
	StartUnixNS int64   `json:"start_unix_ns"`
	Events      []Event `json:"events"`
	// Cycles is the op's total modeled cycle cost (end - base).
	Cycles uint64 `json:"cycles"`
	WallNS int64  `json:"wall_ns"`
	// FastHit and Missed mirror the OpOutcome flags.
	FastHit bool `json:"fast_hit,omitempty"`
	Missed  bool `json:"missed,omitempty"`
	// Anomalies lists the trigger reasons this op fired (empty for a
	// normal op).
	Anomalies []string `json:"anomalies,omitempty"`

	start      time.Time
	baseCycles uint64
	baseSet    bool
}

// SetBase anchors the span's cycle stamps: abs is the machine's
// absolute cycle counter at the moment the op reached its simulated
// core. Events recorded before the base (front-end events) stamp
// cycles 0.
func (o *Op) SetBase(abs uint64) {
	o.baseCycles, o.baseSet = abs, true
}

// Event appends a timeline point. abs is the machine's absolute cycle
// counter at emission (ignored before SetBase).
func (o *Op) Event(kind EventKind, abs uint64, a, b, c int64) {
	var rel uint64
	if o.baseSet && abs >= o.baseCycles {
		rel = abs - o.baseCycles
	}
	o.Events = append(o.Events, Event{
		Kind:   kind,
		Cycles: rel,
		WallNS: time.Since(o.start).Nanoseconds(),
		A:      a, B: b, C: c,
	})
}

// EventRel appends a timeline point with an already-relative cycle
// stamp (front-end events emitted after the engine section ended).
func (o *Op) EventRel(kind EventKind, rel uint64, a, b, c int64) {
	o.Events = append(o.Events, Event{
		Kind:   kind,
		Cycles: rel,
		WallNS: time.Since(o.start).Nanoseconds(),
		A:      a, B: b, C: c,
	})
}

// End stamps the op's total modeled cycle cost from the machine's
// absolute counter.
func (o *Op) End(abs uint64) {
	if o.baseSet && abs >= o.baseCycles {
		o.Cycles = abs - o.baseCycles
	}
}

// Has reports whether the timeline contains an event of kind k.
func (o *Op) Has(k EventKind) bool {
	for _, e := range o.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Anomaly is one recorded trigger firing.
type Anomaly struct {
	UnixNS int64  `json:"unix_ns"`
	Reason string `json:"reason"`
	// OpID is the traced op that fired the trigger (0 for server-side
	// triggers like connection shedding that have no op).
	OpID uint64 `json:"op_id,omitempty"`
}

// maxAnomalies bounds the recorded anomaly list.
const maxAnomalies = 256

// maxAutoDumps bounds how many bundles the flight recorder writes on
// its own, so a pathological trigger cannot fill a disk.
const maxAutoDumps = 32

// Tracer is the sampling span tracer plus flight recorder: the
// sampling decision, one completed-trace ring per shard, per-kind
// event totals over every traced op, the anomaly log, and the dump
// sink.
type Tracer struct {
	shards int
	rings  []ring

	// sample is the 1-in-N sampling rate (0 = off, 1 = every op).
	sample atomic.Uint64
	nextID atomic.Uint64

	// warm marks the measurement phase: a traced op that page-walks
	// while it is set fires the page_walk_warm trigger.
	warm atomic.Bool

	traced     atomic.Uint64
	kindCounts [NumEventKinds]atomic.Uint64

	anomMu    sync.Mutex
	anomalies []Anomaly

	// dump is called (on its own goroutine) when an anomaly fires and
	// auto-dumping is configured; see SetDumpFunc.
	dump      func(reason string)
	dumpCount atomic.Uint64
}

// NewTracer builds a tracer for shards shards with ringCap completed
// traces retained per shard. Sampling starts off; SetSample sets the
// rate.
func NewTracer(shards, ringCap int) *Tracer {
	if shards < 1 {
		shards = 1
	}
	if ringCap < 1 {
		ringCap = 1
	}
	t := &Tracer{shards: shards, rings: make([]ring, shards)}
	for i := range t.rings {
		t.rings[i].init(ringCap)
	}
	return t
}

// SetDumpFunc installs the auto-dump sink the anomaly path calls
// (asynchronously, at most maxAutoDumps times).
func (t *Tracer) SetDumpFunc(f func(reason string)) { t.dump = f }

// SetSample changes the 1-in-N sampling rate (0 disables tracing).
func (t *Tracer) SetSample(every uint64) { t.sample.Store(every) }

// Sample returns the current 1-in-N sampling rate.
func (t *Tracer) Sample() uint64 { return t.sample.Load() }

// SetWarm flips the warm-phase flag: after a measurement mark the
// paper's methodology says translations should be table-resident, so
// a traced op that still page-walks fires page_walk_warm.
func (t *Tracer) SetWarm(v bool) { t.warm.Store(v) }

// Warm reports the warm-phase flag.
func (t *Tracer) Warm() bool { return t.warm.Load() }

// Traced returns how many ops have completed with a trace attached.
func (t *Tracer) Traced() uint64 { return t.traced.Load() }

// Dumps returns how many auto-dumps the anomaly path has requested.
func (t *Tracer) Dumps() uint64 { return t.dumpCount.Load() }

// Sampled is the 1-in-N rule: it advances the caller's own op counter
// against the current rate and reports whether this op is the Nth. A
// counter owned by the caller (one RESP connection) keeps the unsampled
// path to one atomic load, never a write to a shared cache line.
func (t *Tracer) Sampled(ctr *uint64) bool {
	every := t.sample.Load()
	if every == 0 {
		return false
	}
	*ctr++
	return *ctr%every == 0
}

// BeginSampled creates a span unconditionally: the caller has already
// made the sampling decision (Sampled). The key is copied, so callers
// may reuse their buffer.
func (t *Tracer) BeginSampled(name string, key []byte) *Op {
	now := time.Now()
	return &Op{
		ID:          t.nextID.Add(1),
		Shard:       -1,
		Name:        name,
		Key:         truncKey(key),
		StartUnixNS: now.UnixNano(),
		start:       now,
	}
}

// maxTracedKey bounds the key bytes kept on a span.
const maxTracedKey = 48

func truncKey(key []byte) string {
	if len(key) > maxTracedKey {
		return string(key[:maxTracedKey]) + "..."
	}
	return string(key)
}

// Finish completes a span: stamps wall time, files it in shard's
// flight-recorder ring, accumulates per-kind totals, and evaluates the
// anomaly triggers. fastHit/missed mirror the op outcome.
func (t *Tracer) Finish(op *Op, shard int, fastHit, missed bool) {
	if op == nil {
		return
	}
	op.WallNS = time.Since(op.start).Nanoseconds()
	op.Shard = shard
	op.FastHit, op.Missed = fastHit, missed

	walked, scrubbed := false, false
	for _, e := range op.Events {
		t.kindCounts[e.Kind].Add(1)
		switch e.Kind {
		case EvPageWalk:
			walked = true
		case EvSTLTScrub:
			scrubbed = true
		}
	}
	if walked && t.warm.Load() {
		op.Anomalies = append(op.Anomalies, "page_walk_warm")
	}
	if scrubbed {
		op.Anomalies = append(op.Anomalies, "stlt_scrub")
	}

	if shard < 0 || shard >= t.shards {
		shard = 0
	}
	t.rings[shard].push(op)
	t.traced.Add(1)

	for _, reason := range op.Anomalies {
		t.fire(reason, op.ID)
	}
}

// NoteAnomaly records a trigger firing that has no traced op behind
// it (e.g. the server shedding a connection at the -maxconns ceiling)
// and requests an auto-dump.
func (t *Tracer) NoteAnomaly(reason string) { t.fire(reason, 0) }

func (t *Tracer) fire(reason string, opID uint64) {
	t.anomMu.Lock()
	if len(t.anomalies) < maxAnomalies {
		t.anomalies = append(t.anomalies, Anomaly{
			UnixNS: time.Now().UnixNano(),
			Reason: reason,
			OpID:   opID,
		})
	}
	t.anomMu.Unlock()
	if t.dump != nil && t.dumpCount.Add(1) <= maxAutoDumps {
		go t.dump(reason)
	}
}

// AnomalyCount returns how many trigger firings are on record.
func (t *Tracer) AnomalyCount() int {
	t.anomMu.Lock()
	defer t.anomMu.Unlock()
	return len(t.anomalies)
}

// EventCounts returns the per-kind event totals over every traced op
// (not just those still retained in the rings).
func (t *Tracer) EventCounts() map[string]uint64 {
	m := make(map[string]uint64, NumEventKinds)
	for i := range t.kindCounts {
		if n := t.kindCounts[i].Load(); n > 0 {
			m[EventKind(i).String()] = n
		}
	}
	return m
}

// ring is the lock-free flight-recorder ring: a fixed array of atomic
// pointers plus an atomic write sequence. Pushes are wait-free;
// snapshot readers see each slot atomically (a torn *set* of slots is
// acceptable — the recorder keeps "about the last N", not a
// transactional log).
type ring struct {
	slots []atomic.Pointer[Op]
	seq   atomic.Uint64
}

func (r *ring) init(n int) { r.slots = make([]atomic.Pointer[Op], n) }

func (r *ring) push(op *Op) {
	i := r.seq.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(op)
}

// snapshot returns the retained ops, oldest first.
func (r *ring) snapshot() []*Op {
	n := uint64(len(r.slots))
	seq := r.seq.Load()
	start := uint64(0)
	if seq > n {
		start = seq - n
	}
	out := make([]*Op, 0, n)
	for i := start; i < seq; i++ {
		if op := r.slots[i%n].Load(); op != nil {
			out = append(out, op)
		}
	}
	return out
}

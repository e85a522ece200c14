// Per-key TTL and maxmemory LFU eviction.
//
// Both features are maintenance, not traffic: arming a deadline is a
// timed op (EXPIRE travels the same addressing path as EXISTS), but
// the *removal* of a dead or evicted key runs functionally (Fast mode,
// the RemoveOne discipline), so modeled serving cost stays attributable
// to serving. What a removal does change is index layout and fast-path
// state — which is why every removal is queued as a Maint event for the
// owning shard to log (RecExpireDel/RecEvict): recovery replays the
// removals from the log rather than re-deciding them, keeping the
// recovered engine a pure function of the log.
//
// The eviction policy deliberately mirrors the STLT's own in-set LFU
// row replacement (core/stlt.go, Section III-E of the paper): a 4-bit
// counter per key bumped with probability 2^-counter from a xorshift64
// source, victim = first key holding the minimum counter in insertion
// order (the STLT's "first way with the smallest counter" scan). The
// store-level policy and the fast-path policy thus age together, which
// is what makes eviction churn's effect on STLT hit rate a meaningful
// measurement rather than an artifact of mismatched heuristics.
package kv

import (
	"time"

	"addrkv/internal/index"
	"addrkv/internal/trace"
)

// lfuCounterMax mirrors the STLT's 4-bit row counter ceiling.
const lfuCounterMax = 15

// Maint is one untimed maintenance removal performed inside an op:
// a lazy/sweep expiry (Evict false) or a maxmemory eviction (Evict
// true). Key is a copy the caller may retain.
type Maint struct {
	Evict    bool
	Key      []byte
	Deadline int64 // expiry: the deadline that fired (unix ns)
	Counter  uint8 // eviction: the victim's LFU counter
	Bytes    int64 // eviction: record bytes reclaimed
}

// lfuEntry is the per-key eviction state.
type lfuEntry struct {
	counter uint8
	size    int64
}

// lfuState tracks per-key LFU counters, insertion order, and the byte
// budget. Keys removed from entries linger in order until compaction;
// scans skip them.
type lfuState struct {
	entries map[string]*lfuEntry
	order   []string
	used    int64
	rng     uint64
}

func newLFUState(seed uint64) *lfuState {
	rng := seed ^ 0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 0x2545F4914F6CDD1D
	}
	return &lfuState{entries: make(map[string]*lfuEntry), rng: rng}
}

// nextRand mirrors the STLT's xorshift64 counter source.
func (l *lfuState) nextRand() uint64 {
	x := l.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng = x
	return x
}

// bump applies the STLT's probabilistic increment: a counter at value
// x increments with probability 2^-x, saturating at lfuCounterMax.
func (l *lfuState) bump(e *lfuEntry) {
	if e.counter >= lfuCounterMax {
		return
	}
	if l.nextRand()&((1<<e.counter)-1) != 0 {
		return
	}
	e.counter++
}

// victim returns the first live key holding the minimum counter, in
// insertion order — the STLT victimWay scan applied to the whole
// store. Returns "" when empty.
func (l *lfuState) victim() string {
	var victim string
	victimCounter := uint8(lfuCounterMax + 1)
	for _, k := range l.order {
		e, ok := l.entries[k]
		if !ok {
			continue
		}
		if e.counter < victimCounter {
			victim, victimCounter = k, e.counter
		}
	}
	return victim
}

// compact drops dead keys from the order list once they outnumber the
// live ones, preserving insertion order.
func (l *lfuState) compact() {
	if len(l.order) <= 2*len(l.entries) || len(l.order) < 16 {
		return
	}
	live := l.order[:0]
	for _, k := range l.order {
		if _, ok := l.entries[k]; ok {
			live = append(live, k)
		}
	}
	l.order = live
}

// now reads the engine clock (real time unless SetClock installed a
// test source).
func (e *Engine) now() int64 {
	if e.clock != nil {
		return e.clock()
	}
	return time.Now().UnixNano()
}

// SetClock installs the TTL time source (unix nanoseconds). Tests and
// differential harnesses inject a deterministic clock; nil restores
// real time.
func (e *Engine) SetClock(fn func() int64) { e.clock = fn }

// SetReplay gates clock-driven expiry and maxmemory eviction off while
// recovery applies a log: removals replay from their own RecExpireDel/
// RecEvict records instead of being re-decided.
func (e *Engine) SetReplay(on bool) { e.replay = on }

// TakeMaint moves the queued maintenance events into buf (reusing its
// capacity) and clears the queue. The owning shard drains this after
// every op, under its lock, to frame the removals into the WAL.
func (e *Engine) TakeMaint(buf []Maint) []Maint {
	buf = append(buf[:0], e.maint...)
	e.maint = e.maint[:0]
	return buf
}

// MaintPending reports whether any maintenance events await draining.
func (e *Engine) MaintPending() bool { return len(e.maint) > 0 }

// expireIfDue performs the lazy expiry check at op entry: if key's
// deadline has passed, remove it functionally and queue the removal
// for the WAL. sweep marks removals found by the active sweep (trace
// annotation only). No-op when no deadlines are armed or during
// recovery replay.
func (e *Engine) expireIfDue(key []byte, sweep bool) {
	if len(e.expires) == 0 || e.replay {
		return
	}
	dl, ok := e.expires[string(key)]
	if !ok || e.now() < dl {
		return
	}
	e.removeExpired(key, dl, sweep)
}

// removeExpired unlinks a dead key (untimed, via RemoveOne which also
// drops TTL/LFU bookkeeping), counts it, and queues the WAL record.
func (e *Engine) removeExpired(key []byte, dl int64, sweep bool) {
	e.RemoveOne(key)
	e.expired++
	kc := append([]byte(nil), key...)
	e.maint = append(e.maint, Maint{Key: kc, Deadline: dl})
	if e.M.Trace != nil {
		b := int64(0)
		if sweep {
			b = 1
		}
		e.M.Trace.Event(trace.EvExpire, uint64(e.M.Cycles()), dl, b, 0)
	}
}

// disarmDeadline drops key's TTL (SET semantics, DEL cleanup). The
// order list entry is left for lazy compaction.
func (e *Engine) disarmDeadline(key []byte) {
	if _, ok := e.expires[string(key)]; ok {
		delete(e.expires, string(key))
	}
}

// ArmDeadline arms an absolute deadline functionally — no cycles, no
// counters. Recovery (snapshot phase), migration installs, and replayed
// RecExpire frames use it; the timed client path is ExpireAt.
func (e *Engine) ArmDeadline(key []byte, deadline int64) {
	e.armDeadline(key, deadline)
}

func (e *Engine) armDeadline(key []byte, deadline int64) {
	if e.expires == nil {
		e.expires = make(map[string]int64)
	}
	if _, ok := e.expires[string(key)]; !ok {
		e.expOrder = append(e.expOrder, string(key))
	}
	e.expires[string(key)] = deadline
}

// ExpireAt is the timed EXPIRE/PEXPIRE path: it travels the full
// addressing path (fast path included — the STLT locates records for
// TTL bookkeeping exactly as for GET), then arms the absolute deadline.
// Returns 1 when armed, 0 when the key does not exist (including a key
// that just lazily expired). Recovery tail replay calls it with the
// logged deadline, reproducing the timed work bit-for-bit.
func (e *Engine) ExpireAt(key []byte, deadline int64) int {
	e.stampOp()
	_, found := e.read(key, len("PEXPIREAT")+8)
	if found {
		e.armDeadline(key, deadline)
	}
	e.redis.reply(4) // ":1\r\n" / ":0\r\n"
	if found {
		return 1
	}
	return 0
}

// TTL is the timed TTL/PTTL path: the addressing path plus the
// deadline lookup. Returns -2 when the key is absent (or just lazily
// expired), -1 when present without a deadline, and the remaining
// nanoseconds (> 0) otherwise.
func (e *Engine) TTL(key []byte) int64 {
	e.stampOp()
	_, found := e.read(key, len("PTTL"))
	var ret int64 = -2
	if found {
		ret = -1
		if dl, ok := e.expires[string(key)]; ok {
			if rem := dl - e.now(); rem > 0 {
				ret = rem
			} else {
				ret = 1 // due but not yet reaped; round up to the minimum
			}
		}
	}
	e.redis.reply(16)
	return ret
}

// Now reads the engine's TTL clock — the time source deadline
// arithmetic must use so injected test clocks stay authoritative.
func (e *Engine) Now() int64 { return e.now() }

// RangeDeadlines visits every armed deadline functionally, in arming
// order (snapshot serialization; a re-armed key may be visited twice —
// replaying the duplicate frame is idempotent).
func (e *Engine) RangeDeadlines(fn func(key []byte, deadline int64) bool) {
	for _, k := range e.expOrder {
		dl, ok := e.expires[k]
		if !ok {
			continue
		}
		if !fn([]byte(k), dl) {
			return
		}
	}
}

// DeadlineOf reports key's armed deadline functionally (migration uses
// it to ship TTLs alongside records).
func (e *Engine) DeadlineOf(key []byte) (int64, bool) {
	if len(e.expires) == 0 {
		return 0, false
	}
	dl, ok := e.expires[string(key)]
	return dl, ok
}

// ExpiresArmed returns how many keys currently carry a deadline.
func (e *Engine) ExpiresArmed() int { return len(e.expires) }

// SweepExpired is the active expiry cycle: examine up to limit armed
// deadlines (round-robin over arming order, so successive sweeps cover
// the whole set) and reap the dead ones. Runs off the worker drain and
// the sweep ticker, under the shard lock; removals are untimed and
// queued for the WAL like lazy expiries. Returns keys reaped.
func (e *Engine) SweepExpired(limit int) int {
	if len(e.expires) == 0 || e.replay || limit <= 0 {
		return 0
	}
	// Compact the order list first if it has gone mostly dead.
	if len(e.expOrder) > 2*len(e.expires) && len(e.expOrder) >= 16 {
		live := e.expOrder[:0]
		for _, k := range e.expOrder {
			if _, ok := e.expires[k]; ok {
				live = append(live, k)
			}
		}
		e.expOrder = live
		e.expCursor = 0
	}
	now := e.now()
	reaped := 0
	for checked := 0; checked < limit && len(e.expOrder) > 0; checked++ {
		if e.expCursor >= len(e.expOrder) {
			e.expCursor = 0
		}
		k := e.expOrder[e.expCursor]
		e.expCursor++
		dl, ok := e.expires[k]
		if !ok {
			continue
		}
		if now >= dl {
			e.removeExpired([]byte(k), dl, true)
			reaped++
		}
	}
	return reaped
}

// lfuTouch bumps key's LFU counter on an access hit (no-op without
// maxmemory). Go-side state only: no cycles, no machine traffic.
func (e *Engine) lfuTouch(key []byte) {
	if e.lfu == nil {
		return
	}
	if ent, ok := e.lfu.entries[string(key)]; ok {
		e.lfu.bump(ent)
	}
}

// lfuAccount records key's post-write size, creating its entry
// (counter 0, mirroring InsertSTLT's fresh row) on first sight.
func (e *Engine) lfuAccount(key, value []byte) {
	if e.lfu == nil {
		return
	}
	size := int64(index.RecordSize(len(key), len(value)))
	if ent, ok := e.lfu.entries[string(key)]; ok {
		e.lfu.used += size - ent.size
		ent.size = size
		e.lfu.bump(ent)
		return
	}
	k := string(key)
	e.lfu.entries[k] = &lfuEntry{size: size}
	e.lfu.order = append(e.lfu.order, k)
	e.lfu.used += size
}

// lfuForget drops key's eviction state (delete, expiry, migration
// extract).
func (e *Engine) lfuForget(key []byte) {
	if e.lfu == nil {
		return
	}
	if ent, ok := e.lfu.entries[string(key)]; ok {
		e.lfu.used -= ent.size
		delete(e.lfu.entries, string(key))
		e.lfu.compact()
	}
}

// maybeEvict reclaims keys after a SET until the store fits
// Cfg.MaxMemory, choosing victims by the STLT LFU rule. Evictions are
// untimed removals queued for the WAL (RecEvict); recovery replays the
// logged victims instead of re-running the policy, so the replay flag
// gates this off.
func (e *Engine) maybeEvict() {
	if e.lfu == nil || e.replay {
		return
	}
	for e.lfu.used > e.Cfg.MaxMemory && len(e.lfu.entries) > 0 {
		k := e.lfu.victim()
		if k == "" {
			return
		}
		ent := e.lfu.entries[k]
		counter, size := ent.counter, ent.size
		key := []byte(k)
		e.RemoveOne(key) // drops the lfu entry and any deadline too
		e.evicted++
		e.maint = append(e.maint, Maint{Evict: true, Key: key, Counter: counter, Bytes: size})
		if e.M.Trace != nil {
			e.M.Trace.Event(trace.EvEvict, uint64(e.M.Cycles()), int64(counter), size, 0)
		}
	}
	e.lfu.compact()
}

// EvictOne applies one logged RecEvict during recovery replay: remove
// exactly the recorded victim, untimed, bypassing the live policy.
func (e *Engine) EvictOne(key []byte) {
	e.RemoveOne(key)
	e.evicted++
}

// ExpireDelOne applies one logged RecExpireDel during recovery replay.
func (e *Engine) ExpireDelOne(key []byte) {
	e.RemoveOne(key)
	e.expired++
}

// UsedBytes reports the tracked record bytes (0 without maxmemory).
func (e *Engine) UsedBytes() int64 {
	if e.lfu == nil {
		return 0
	}
	return e.lfu.used
}

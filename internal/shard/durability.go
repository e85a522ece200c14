// Durability wiring: the cluster side of the per-shard append-only
// log. Each shard's mutations append to its own wal.Log under the
// shard lock — so log order equals engine execution order by
// construction — and commits follow the dispatch mode's natural batch
// boundary: the worker runtime commits once per drain burst (group
// commit: one fsync covers every op of the burst, across connections),
// Do commits per op and DoBatch once per shard group.
//
// Replay discipline: recovery applies records through the same engine
// entry points live traffic uses — RecLoad through the untimed bulk
// loader, RecSet/RecDel/RecFlush through the timed ops — so a
// recovered engine is bit-for-bit identical (replies, modeled cycles,
// stats) to a fresh engine that executed the surviving stream live.
// ApplyRecovery talks to the engines directly and never touches the
// attached logs, so replayed records are not re-appended regardless of
// attach order.
package shard

import (
	"encoding/binary"
	"fmt"
	"time"

	"addrkv/internal/kv"
	"addrkv/internal/trace"
	"addrkv/internal/wal"
)

// AttachWAL installs one log per shard (index-aligned). Attach before
// traffic — the field is read without synchronization on the hot path.
// Passing nil detaches.
func (c *Cluster) AttachWAL(logs []*wal.Log) error {
	if logs == nil {
		c.logs = nil
		return nil
	}
	if len(logs) != len(c.shards) {
		return fmt.Errorf("shard: %d logs for %d shards — the AOF directory was written with a different -shards; recover with the original count or remove it",
			len(logs), len(c.shards))
	}
	c.logs = logs
	return nil
}

// WALAttached reports whether durability logging is on.
func (c *Cluster) WALAttached() bool { return c.logs != nil }

// WAL returns shard i's log (nil when durability is off).
func (c *Cluster) WAL(i int) *wal.Log {
	if c.logs == nil {
		return nil
	}
	return c.logs[i]
}

// WALErr returns the first sticky log I/O error across shards, if any.
func (c *Cluster) WALErr() error {
	if c.logs == nil {
		return nil
	}
	for _, l := range c.logs {
		if err := l.Err(); err != nil {
			return err
		}
	}
	return nil
}

// walAppend logs one mutation record for shard i. Must hold the shard
// lock (it orders the append against the engine op it records).
func (c *Cluster) walAppend(i int, e *kv.Engine, kind wal.Kind, key, value []byte, out *OpOutcome) {
	if c.logs == nil {
		return
	}
	n := c.logs[i].Append(kind, key, value)
	if out != nil && out.Trace != nil {
		out.Trace.Event(trace.EvWALAppend, uint64(e.M.Cycles()), int64(n), 0, 0)
	}
}

// walOp drains shard i's maintenance queue and logs one op together
// with the maintenance it triggered, in replay order: lazy-expiry
// removals run before the op touches the index and evictions after it,
// so frames go RecExpireDel*, op, RecEvict*. opKind 0 means the op
// writes no frame of its own (reads, EXPIRE of an absent key) — only
// maintenance is logged. The queue is drained even without a WAL so it
// cannot grow. Returns whether any frame is pending commit. Must hold
// the shard lock.
func (c *Cluster) walOp(i int, s *shardSlot, opKind wal.Kind, key, value []byte, out *OpOutcome) bool {
	e := s.e
	if !e.MaintPending() {
		if opKind == 0 {
			return false
		}
		c.walAppend(i, e, opKind, key, value, out)
		return c.logs != nil
	}
	s.maint = e.TakeMaint(s.maint)
	for _, m := range s.maint {
		if !m.Evict {
			c.walAppend(i, e, wal.RecExpireDel, m.Key, nil, out)
		}
	}
	if opKind != 0 {
		c.walAppend(i, e, opKind, key, value, out)
	}
	for _, m := range s.maint {
		if m.Evict {
			c.walAppend(i, e, wal.RecEvict, m.Key, nil, out)
		}
	}
	return c.logs != nil
}

// walCommit publishes shard i's pending records (Do: one commit per op;
// DoBatch: one per shard group). covered is the record count the barrier
// covers, stamped on the traced op's wal.fsync event under the always
// policy.
func (c *Cluster) walCommit(i int, out *OpOutcome, covered int) {
	if c.logs == nil {
		return
	}
	l := c.logs[i]
	traced := out != nil && out.Trace != nil && l.Policy() == wal.FsyncAlways
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	l.Commit() //nolint:errcheck // sticky; surfaced via WALErr
	if traced {
		out.Trace.EventRel(trace.EvWALFsync, out.Cycles, time.Since(t0).Nanoseconds(), int64(covered), 0)
	}
}

// Snapshot compacts shard i's log: under the shard lock, stream the
// engine's live records into a new snapshot generation (BGSAVE body),
// then the armed TTL deadlines as RecExpire frames — a recovered
// engine lazily expires exactly what the live one would have.
func (c *Cluster) Snapshot(i int) error {
	if c.logs == nil {
		return fmt.Errorf("shard: no WAL attached")
	}
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.logs[i].RewriteKinds(func(add func(kind wal.Kind, key, value []byte) error) error {
		var err error
		s.e.RangeRecords(func(key, value []byte) bool {
			err = add(wal.RecLoad, key, value)
			return err == nil
		})
		if err != nil {
			return err
		}
		var dlb [8]byte
		s.e.RangeDeadlines(func(key []byte, deadline int64) bool {
			binary.LittleEndian.PutUint64(dlb[:], uint64(deadline))
			err = add(wal.RecExpire, key, dlb[:])
			return err == nil
		})
		return err
	})
}

// SnapshotAll compacts every shard's log (shard by shard — traffic on
// other shards proceeds while one shard snapshots).
func (c *Cluster) SnapshotAll() error {
	for i := range c.shards {
		if err := c.Snapshot(i); err != nil {
			return err
		}
	}
	return nil
}

// SyncWAL force-commits and fsyncs every shard's log (shutdown
// barrier).
func (c *Cluster) SyncWAL() error {
	if c.logs == nil {
		return nil
	}
	var first error
	for _, l := range c.logs {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CloseWAL closes and detaches every log. Stop traffic (and workers)
// first.
func (c *Cluster) CloseWAL() error {
	if c.logs == nil {
		return nil
	}
	var first error
	for _, l := range c.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.logs = nil
	return first
}

// RecoveryApplyStats reports what a replay applied.
type RecoveryApplyStats struct {
	Loads, Sets, Dels, Flushes int
	// Expires counts replayed TTL arms; ExpireDels and Evicts the
	// replayed maintenance removals.
	Expires, ExpireDels, Evicts int
}

// Ops returns the total applied record count.
func (s RecoveryApplyStats) Ops() int {
	return s.Loads + s.Sets + s.Dels + s.Flushes + s.Expires + s.ExpireDels + s.Evicts
}

// Add accumulates per-shard stats.
func (s RecoveryApplyStats) Add(o RecoveryApplyStats) RecoveryApplyStats {
	return RecoveryApplyStats{
		s.Loads + o.Loads, s.Sets + o.Sets, s.Dels + o.Dels, s.Flushes + o.Flushes,
		s.Expires + o.Expires, s.ExpireDels + o.ExpireDels, s.Evicts + o.Evicts,
	}
}

// ApplyRecovery replays one shard's surviving record stream into its
// engine: snapshot records through the untimed bulk-load path, tail
// records through the timed ops — exactly the execution a live run of
// the same stream would perform. The whole replay runs with the
// engine's replay flag set: clock-driven expiry and live eviction are
// off, and every removal comes from its own RecExpireDel/RecEvict
// record instead of being re-decided — so the recovered state is a
// pure function of the log, independent of wall time at recovery.
func (c *Cluster) ApplyRecovery(i int, rec *wal.Recovery) (RecoveryApplyStats, error) {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.SetReplay(true)
	defer s.e.SetReplay(false)
	var st RecoveryApplyStats
	apply := func(r wal.Record, tail bool) error {
		switch r.Kind {
		case wal.RecLoad:
			s.e.LoadOne(r.Key, r.Value)
			st.Loads++
		case wal.RecSet:
			s.e.Set(r.Key, r.Value)
			st.Sets++
		case wal.RecDel:
			s.e.Delete(r.Key)
			st.Dels++
		case wal.RecFlush:
			if err := s.e.Reset(); err != nil {
				return fmt.Errorf("shard %d: replay flush: %w", i, err)
			}
			st.Flushes++
		case wal.RecExpire:
			if len(r.Value) != 8 {
				return fmt.Errorf("shard %d: replay: expire record with %d-byte deadline", i, len(r.Value))
			}
			dl := int64(binary.LittleEndian.Uint64(r.Value))
			if tail {
				s.e.ExpireAt(r.Key, dl) // timed, like the live arm
			} else {
				s.e.ArmDeadline(r.Key, dl) // snapshot: untimed
			}
			st.Expires++
		case wal.RecExpireDel:
			s.e.ExpireDelOne(r.Key)
			st.ExpireDels++
		case wal.RecEvict:
			s.e.EvictOne(r.Key)
			st.Evicts++
		default:
			return fmt.Errorf("shard %d: replay: unknown record kind %d", i, r.Kind)
		}
		return nil
	}
	for _, r := range rec.Snapshot {
		if err := apply(r, false); err != nil {
			return st, err
		}
	}
	for _, r := range rec.Tail {
		if err := apply(r, true); err != nil {
			return st, err
		}
	}
	return st, nil
}

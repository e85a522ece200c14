// Slot-migration support: the cluster op gate plus functional
// extraction/installation of key sets, the building blocks
// internal/cluster composes into live slot migration between nodes.
//
// Correctness rests on one rule: every decision that affects a key's
// home is made UNDER that key's shard lock. Routing checks in the
// front-end are only an optimization — a command classified "local"
// may race a migration that starts before the op executes (worker
// rings buffer ops; an op run in place has the same classify-to-execute
// window). The gate closes that window: it runs inside the same
// critical section as the engine op, so an op either executes before
// a batch extraction observes the store, or is denied and redirected
// after the extraction completed. Extraction in turn ships each
// shard's records to the destination BEFORE releasing that shard's
// lock, so by the time any denied op can be redirected with ASK, the
// destination has already acknowledged the records — no client can
// observe a key in neither place, read a stale source copy, or lose
// an acknowledged write.
package shard

import (
	"encoding/binary"

	"addrkv/internal/kv"
	"addrkv/internal/wal"
)

// GateDecision is the op gate's verdict for one key.
type GateDecision uint8

const (
	// GateAllow lets the op execute normally.
	GateAllow GateDecision = iota
	// GateIfPresent lets the op execute only while the key is still
	// stored locally — the dual-serve rule of a migrating slot:
	// present keys are served by the source, extracted (or never
	// present) keys redirect to the destination with ASK.
	GateIfPresent
	// GateDeny rejects the op outright (slot not owned by this node).
	GateDeny
)

// Gate decides, under the shard lock, whether a single-key data op
// may execute. It must be cheap and functional: it runs inside every
// op's critical section while set, and must not call back into the
// cluster (lock order is shard.mu -> gate's own state).
type Gate func(key []byte) GateDecision

// SetOpGate installs the cluster op gate (nil clears it). Ops whose
// OpOutcome.Bypass is pre-set skip the gate — the escape hatch for
// ASK-redirected commands that are legitimately served while their
// slot is still importing. Non-cluster callers never set a gate and
// pay one atomic nil-load per op.
func (c *Cluster) SetOpGate(g Gate) {
	if g == nil {
		c.gate.Store(nil)
		return
	}
	c.gate.Store(&g)
}

// gateAllows applies the op gate to one key under the shard lock.
// When the op is denied it marks out.Denied and returns false; no
// engine call may run and no cycles are charged, so a denied op is
// invisible to the simulation.
func (c *Cluster) gateAllows(e *kv.Engine, key []byte, out *OpOutcome) bool {
	gp := c.gate.Load()
	if gp == nil {
		return true
	}
	if out != nil && out.Bypass {
		return true
	}
	switch (*gp)(key) {
	case GateAllow:
		return true
	case GateIfPresent:
		if e.Contains(key) {
			return true
		}
	}
	if out != nil {
		out.Denied = true
	}
	return false
}

// gateAllowsGroup takes the op gate's verdict once for a DoBatch group,
// under the shard lock before any of its ops runs. The verdict is
// deliberately per group, not per key: a multi-key command gets no
// IfPresent dual-serve — one overlapping a migrating slot is refused
// whole (TRYAGAIN) rather than split per key, matching the
// classify-time TRYAGAIN rule. An allowed group's requests are marked
// Out.Bypass so exec does not gate them again.
func (c *Cluster) gateAllowsGroup(g []*Req) bool {
	if gp := c.gate.Load(); gp != nil {
		for _, r := range g {
			if (*gp)(r.Key) != GateAllow {
				return false
			}
		}
	}
	for _, r := range g {
		r.Out.Bypass = true
	}
	return true
}

// CollectKeys returns a copy of every stored key matching the
// predicate, scanning shard by shard under each shard's lock. The
// snapshot is not atomic across shards — migration tolerates that
// because keys created after the scan are gated to the destination
// and keys deleted after it are skipped at extraction time.
func (c *Cluster) CollectKeys(match func(key []byte) bool) [][]byte {
	var keys [][]byte
	for _, s := range c.shards {
		s.mu.Lock()
		s.e.RangeRecords(func(k, _ []byte) bool {
			if match(k) {
				keys = append(keys, append([]byte(nil), k...))
			}
			return true
		})
		s.mu.Unlock()
	}
	return keys
}

// ExtractBatch moves a batch of keys out of this node: per shard
// group, under ONE shard-lock critical section, each still-present
// key is re-read functionally, deleted, and framed as a wal RecLoad
// record — followed by a RecExpire frame when the key carries a TTL,
// so deadlines migrate with their records. Keys whose deadline has
// already passed are reaped in place and NEVER shipped: the
// destination must not install a corpse the source would have lazily
// expired. ship is called with the group's frames while the lock is
// still held and must only return nil once the destination has
// acknowledged them. Keys absent by extraction time (deleted by
// traffic after CollectKeys) are skipped. If ship fails, the group is
// re-installed (values and deadlines) before the lock releases — the
// store is unchanged and the migration may retry; groups already
// shipped stay shipped (re-extracting them later is idempotent: the
// destination's LoadOne upserts). Returns the number of records
// shipped and the total frame bytes.
func (c *Cluster) ExtractBatch(keys [][]byte, ship func(frames []byte, count int) error) (moved, bytes int, err error) {
	var frames, vbuf []byte
	var dlb [8]byte
	for si, group := range groupByShard(c, keys, func(k []byte) []byte { return k }) {
		if len(group) == 0 {
			continue
		}
		s := c.shards[si]
		s.mu.Lock()
		frames = frames[:0]
		var extK, extV [][]byte
		var extDL []int64
		var extArmed []bool
		for _, k := range group {
			v, ok := s.e.PeekOne(k, vbuf)
			if !ok {
				continue
			}
			vbuf = v
			dl, armed := s.e.DeadlineOf(k)
			if armed && s.e.Now() >= dl {
				s.e.ExpireDelOne(k) // dead on extraction: reap, don't ship
				continue
			}
			vc := append([]byte(nil), v...)
			s.e.RemoveOne(k)
			frames = wal.AppendFrame(frames, wal.RecLoad, k, vc)
			if armed {
				binary.LittleEndian.PutUint64(dlb[:], uint64(dl))
				frames = wal.AppendFrame(frames, wal.RecExpire, k, dlb[:])
			}
			extK = append(extK, k)
			extV = append(extV, vc)
			extDL = append(extDL, dl)
			extArmed = append(extArmed, armed)
		}
		if len(extK) == 0 {
			s.mu.Unlock()
			continue
		}
		if serr := ship(frames, len(extK)); serr != nil {
			for j := range extK {
				s.e.LoadOne(extK[j], extV[j])
				if extArmed[j] {
					s.e.ArmDeadline(extK[j], extDL[j])
				}
			}
			s.mu.Unlock()
			return moved, bytes, serr
		}
		moved += len(extK)
		bytes += len(frames)
		s.mu.Unlock()
	}
	return moved, bytes, nil
}

// InstallRecords applies migrated records on the destination: each
// RecLoad is routed to its home shard and installed functionally
// (LoadOne, the same untimed path WAL recovery uses), optionally
// followed by an STLT re-warm — the paper's insertSTLT() step of the
// record-move protocol. RecExpire frames re-arm the shipped TTL
// deadlines (untimed; a frame order of load-then-expire is guaranteed
// by ExtractBatch). Returns how many records were installed and how
// many STLT rows were warmed.
func (c *Cluster) InstallRecords(recs []wal.Record, rewarm bool) (installed, rewarmed int) {
	for _, r := range recs {
		i := c.ShardFor(r.Key)
		s := c.shards[i]
		s.mu.Lock()
		if r.Kind == wal.RecExpire && len(r.Value) == 8 {
			s.e.ArmDeadline(r.Key, int64(binary.LittleEndian.Uint64(r.Value)))
			s.mu.Unlock()
			continue
		}
		s.e.LoadOne(r.Key, r.Value)
		if rewarm && s.e.RewarmOne(r.Key) {
			rewarmed++
		}
		s.mu.Unlock()
		installed++
	}
	return installed, rewarmed
}

// PeekValue reads a key's stored value functionally (copied), under
// the shard lock — verification paths use it to compare source and
// destination stores byte for byte without charging cycles.
func (c *Cluster) PeekValue(key []byte) ([]byte, bool) {
	s := c.slot(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.e.PeekOne(key, nil)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// ContainsKey reports functionally whether key is stored on this
// node, under the shard lock.
func (c *Cluster) ContainsKey(key []byte) bool {
	s := c.slot(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Contains(key)
}

// The source-side migration runner: stream one slot's records to the
// destination in batches, dual-serving throughout, then flip
// ownership.
//
// State machine (source / destination):
//
//	stable ──BeginMigrate──▶ migrating(slot→dest)      [source]
//	          MigStart──▶ importing(slot→src)          [destination]
//	migrating: per batch, under each shard lock —
//	    re-read + delete + frame records, ship, await Ack
//	    (present keys keep serving locally; extracted keys ASK)
//	all shipped ──MigCommit(map v+1)──▶ destination owns [destination]
//	             FinishMigrate(map v+1)                 [source]
//	             gossip MapUpdate to remaining peers
//
// Failure discipline: before any batch ships, an error aborts cleanly
// (every record still local, migrating mark cleared). After a batch
// has shipped, the slot STAYS migrating — shipped records live only
// at the destination, which serves them through the ASK window — and
// the operator re-issues the migration, which resumes idempotently
// (extraction skips absent keys; installation upserts). A resume
// whose MigStart the destination refuses because it already owns the
// slot — the commit landed but its ack was lost — completes by
// adopting the destination's newer map instead. Rolling back
// shipped batches is never attempted: pulling records back while the
// destination may be serving ASK traffic for them is exactly the
// lost-update hazard this protocol exists to avoid.
//
// One migration at a time is the supported regime (it is an operator
// command, not an automatic rebalancer): concurrent migrations from
// different sources would race the map epoch (both publish
// version+1). The version gate makes such races safe — one side's
// commit loses adoption — but the loser's slot would need re-issuing,
// so the orchestrator serializes.
package cluster

import (
	"fmt"
	"time"

	"addrkv/internal/shard"
)

// DefaultBatchKeys is the records-per-batch default: big enough to
// amortize a bus round-trip, small enough that the per-shard lock
// hold (extract + ship + ack) stays in the tens of microseconds on a
// loopback bus.
const DefaultBatchKeys = 256

// MigrateOpts tunes one migration.
type MigrateOpts struct {
	// BatchKeys caps records per MigBatch (0 = DefaultBatchKeys).
	BatchKeys int
	// Rewarm asks the destination to re-insert each installed
	// record's STLT row (the paper's insertSTLT step). Off, the
	// destination serves the migrated slot cold and the warm-up cliff
	// is visible in its fast-hit rate. kvserve always sets it; the off
	// leg of TestMigrateRewarmWarmsDestinationSTLT holds the cliff claim.
	Rewarm bool
	// OnProgress, when set, is called after every shipped batch (and
	// once more at completion) with the current progress snapshot —
	// the serving layer's hook for mig.progress trace events. Called
	// from the migration goroutine; must not block.
	OnProgress func(MigrationProgress)
}

// MigrationResult reports one completed (or partial) migration.
type MigrationResult struct {
	Slot     uint16
	Dest     int
	Keys     int
	Bytes    int
	Batches  int
	Rewarm   bool
	Duration time.Duration
}

// Migrate moves one slot from this node to dest, streaming records
// over the destination's bus peer. peers resolves a node index to its
// bus handle (nil for self). c is this node's local shard cluster.
// Blocks until committed or failed; concurrent client traffic keeps
// being served throughout (dual-serve via the op gate).
func (n *Node) Migrate(c *shard.Cluster, peers func(int) *Peer, slot uint16, dest int, o MigrateOpts) (MigrationResult, error) {
	res := MigrationResult{Slot: slot, Dest: dest, Rewarm: o.Rewarm}
	batch := o.BatchKeys
	if batch <= 0 {
		batch = DefaultBatchKeys
	}
	start := time.Now()
	resumed, err := n.BeginMigrate(slot, dest)
	if err != nil {
		return res, err
	}
	n.Metrics.MigStarted.Add(1)
	p := peers(dest)
	if p == nil {
		// A resumed migration's earlier batches may have shipped: the
		// mark must survive so the slot keeps ASK-ing toward dest.
		if !resumed {
			n.AbortMigrate(slot)
		}
		n.Metrics.MigFailed.Add(1)
		return res, fmt.Errorf("cluster: no bus peer for node %d", dest)
	}
	if _, err := p.Call(MsgMigStart, EncodeSlotNode(slot, n.self)); err != nil {
		if resumed {
			// The interrupted attempt may have committed at the
			// destination with the ack lost — it then owns the slot and
			// refuses BeginImport. Probe its map: if it already shows
			// dest owning the slot at a newer epoch, adopt it and the
			// migration is complete.
			if sm := n.adoptCommitted(p, slot, dest); sm != nil {
				return n.finishCommitted(res, sm, peers, start)
			}
			// Still interrupted: keep the migrating mark (shipped
			// records live only at the destination) and report.
			n.Metrics.MigFailed.Add(1)
			return res, err
		}
		n.AbortMigrate(slot)
		n.Metrics.MigFailed.Add(1)
		return res, err
	}

	// From here on the op gate dual-serves the slot: present keys run
	// locally, extracted keys redirect with ASK. CollectKeys may race
	// traffic — keys created after the scan are gated to the
	// destination, deleted ones are skipped at extraction.
	keys := c.CollectKeys(func(k []byte) bool { return SlotOf(k) == slot })
	n.progressStart(slot, dest, resumed, len(keys), (len(keys)+batch-1)/batch)
	notify := func() {
		if o.OnProgress != nil {
			if mp, ok := n.Progress(); ok {
				o.OnProgress(mp)
			}
		}
	}
	shipped := false
	for lo := 0; lo < len(keys); lo += batch {
		hi := lo + batch
		if hi > len(keys) {
			hi = len(keys)
		}
		moved, bytes, err := c.ExtractBatch(keys[lo:hi], func(frames []byte, count int) error {
			_, cerr := p.Call(MsgMigBatch, EncodeMigBatch(slot, n.self, o.Rewarm, frames))
			return cerr
		})
		res.Keys += moved
		res.Bytes += bytes
		if moved > 0 {
			res.Batches++
			shipped = true
			n.progressBatch(moved, bytes)
			notify()
		}
		if err != nil {
			n.Metrics.MigFailed.Add(1)
			n.progressEnd(true)
			if !shipped {
				n.AbortMigrate(slot) // nothing left the node: clean cancel
			}
			return res, err
		}
	}

	next := n.Map().Clone()
	next.Version++
	next.SetOwner(slot, dest)
	// Destination first: it must be able to serve as owner before any
	// other node (or this one) starts answering MOVED toward it.
	if _, err := p.Call(MsgMigCommit, EncodeMigCommit(slot, next)); err != nil {
		// Records are all at the destination; the slot stays migrating
		// here so every key ASKs its way there. Re-issuing the
		// migration retries the (idempotent) commit — or, if this
		// commit landed and only its ack was lost, resumes through the
		// adoptCommitted probe above.
		n.Metrics.MigFailed.Add(1)
		n.progressEnd(true)
		return res, err
	}
	n.FinishMigrate(slot, next)
	n.Metrics.MigKeys.Add(uint64(res.Keys))
	n.Metrics.MigBytes.Add(uint64(res.Bytes))
	n.progressEnd(false)
	notify()
	return n.finishCommitted(res, next, peers, start)
}

// adoptCommitted probes the destination for evidence that an
// interrupted migration's commit already landed there: a map strictly
// newer than ours under which dest owns the slot. If found, install
// it (clearing the migrating mark) and return it; nil means no such
// evidence — the interruption stands.
func (n *Node) adoptCommitted(p *Peer, slot uint16, dest int) *SlotMap {
	m, err := p.Call(MsgMapGet, nil)
	if err != nil {
		return nil
	}
	sm, err := DecodeSlotMap(m.Payload)
	if err != nil {
		return nil
	}
	if sm.Version <= n.Version() || sm.Owner(slot) != dest {
		return nil
	}
	n.FinishMigrate(slot, sm)
	return sm
}

// finishCommitted records a committed migration's metrics and gossips
// the new map to the remaining peers, best effort: a peer that misses
// it keeps redirecting through the old owner (us), which now answers
// MOVED toward the destination — two hops, not wrong answers.
func (n *Node) finishCommitted(res MigrationResult, next *SlotMap, peers func(int) *Peer, start time.Time) (MigrationResult, error) {
	n.Metrics.MigCompleted.Add(1)
	res.Duration = time.Since(start)
	n.Metrics.LastMigSlot.Store(int64(res.Slot))
	n.Metrics.LastMigUS.Store(res.Duration.Microseconds())
	enc := next.Encode(nil)
	for i := range next.Nodes {
		if i == n.self || i == res.Dest {
			continue
		}
		if pp := peers(i); pp != nil {
			pp.Call(MsgMapUpdate, enc) //nolint:errcheck // best-effort gossip
		}
	}
	return res, nil
}

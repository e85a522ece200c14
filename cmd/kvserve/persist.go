// Durability wiring for kvserve: -aof turns on the per-shard
// append-only log (internal/wal), recovering any existing data in
// -aof-dir before the listener comes up and logging every mutation
// after it. BGSAVE compacts the logs into snapshot generations in the
// background (shard by shard, so traffic keeps flowing), and LASTSAVE
// reports the oldest shard's last completed save. INFO gains a
// "# persistence" section and /metrics the aof_* series (the rows are in
// series.go), including the fsync latency histogram the
// everysec-vs-always tradeoff is judged by.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
	"addrkv/internal/wal"
)

// persistState is the server's durability runtime: the recovered
// summary and the background-save gate.
type persistState struct {
	policy wal.Policy

	recovered shard.RecoveryApplyStats
	tornBytes int64

	// saving gates BGSAVE: one background save at a time, Redis-style.
	saving   atomic.Bool
	saves    atomic.Uint64
	saveErrs atomic.Uint64
	saveWG   sync.WaitGroup
}

// openPersistence opens (or creates) the per-shard logs in dir,
// replays any surviving snapshot+tail streams into the cluster, and
// attaches the logs so subsequent mutations are recorded. Call before
// preloading and before serving: recovery requires fresh engines.
func openPersistence(sys *addrkv.System, dir, fsync string) (*persistState, error) {
	policy, err := wal.ParsePolicy(fsync)
	if err != nil {
		return nil, err
	}
	c := sys.Cluster()
	shards := c.NumShards()
	existing, err := wal.DetectShards(dir)
	if err != nil {
		return nil, fmt.Errorf("aof dir %s: %w", dir, err)
	}
	if existing > 0 && existing != shards {
		return nil, fmt.Errorf("aof dir %s holds %d shard log(s) but -shards is %d; restart with -shards %d or point -aof-dir elsewhere",
			dir, existing, shards, existing)
	}
	ps := &persistState{policy: policy}
	logs := make([]*wal.Log, shards)
	start := time.Now()
	for i := 0; i < shards; i++ {
		l, rec, err := wal.OpenShard(dir, i, policy)
		if err != nil {
			closeLogs(logs[:i])
			return nil, fmt.Errorf("aof shard %d: %w", i, err)
		}
		if rec.TornBytes > 0 {
			log.Printf("kvserve: aof shard %d: dropped %d torn trailing byte(s) (%v) — last write did not survive the crash",
				i, rec.TornBytes, rec.TornErr)
			ps.tornBytes += rec.TornBytes
		}
		st, err := c.ApplyRecovery(i, rec)
		if err != nil {
			l.Close()
			closeLogs(logs[:i])
			return nil, fmt.Errorf("aof shard %d replay: %w", i, err)
		}
		ps.recovered = ps.recovered.Add(st)
		logs[i] = l
	}
	if err := c.AttachWAL(logs); err != nil {
		closeLogs(logs)
		return nil, err
	}
	if n := ps.recovered.Ops(); n > 0 {
		log.Printf("kvserve: recovered %d record(s) from %s in %v (%d snapshot loads, %d sets, %d dels, %d flushes; %d keys live)",
			n, dir, time.Since(start).Round(time.Millisecond),
			ps.recovered.Loads, ps.recovered.Sets, ps.recovered.Dels, ps.recovered.Flushes, c.Len())
	} else {
		log.Printf("kvserve: aof enabled in %s (fsync %s), no prior data", dir, policy)
	}
	return ps, nil
}

func closeLogs(logs []*wal.Log) {
	for _, l := range logs {
		if l != nil {
			l.Close()
		}
	}
}

// beginSave claims the single background-save slot.
func (s *server) beginSave() bool {
	ps := s.persist
	if ps == nil {
		return false
	}
	if !ps.saving.CompareAndSwap(false, true) {
		return false
	}
	ps.saveWG.Add(1)
	return true
}

// runSave compacts every shard's log (the caller holds the save slot).
func (s *server) runSave() {
	ps := s.persist
	defer ps.saveWG.Done()
	defer ps.saving.Store(false)
	start := time.Now()
	if err := s.sys.Cluster().SnapshotAll(); err != nil {
		ps.saveErrs.Add(1)
		log.Printf("kvserve: bgsave snapshot failed: %v", err)
		return
	}
	ps.saves.Add(1)
	log.Printf("kvserve: bgsave snapshot complete in %v", time.Since(start).Round(time.Millisecond))
}

// closePersistence is the shutdown barrier: wait out any in-flight
// save, then sync and close every log. Call after drain and
// stopWorkers — nothing may be appending anymore.
func (s *server) closePersistence() {
	ps := s.persist
	if ps == nil {
		return
	}
	ps.saveWG.Wait()
	c := s.sys.Cluster()
	if err := c.SyncWAL(); err != nil {
		log.Printf("kvserve: final aof sync: %v", err)
	}
	if err := c.CloseWAL(); err != nil {
		log.Printf("kvserve: aof close: %v", err)
	}
}

// walStats snapshots every shard log's counters (nil without -aof).
func (s *server) walStats() []wal.Stats {
	c := s.sys.Cluster()
	if !c.WALAttached() {
		return nil
	}
	out := make([]wal.Stats, c.NumShards())
	for i := range out {
		out[i] = c.WAL(i).Stats()
	}
	return out
}

// lastSaveUnix returns the oldest shard's last completed snapshot time
// (0 = some shard has never been snapshotted): the conservative answer
// to "since when is everything compact?".
func lastSaveUnix(logs []wal.Stats) int64 {
	var oldest int64 = -1
	for _, st := range logs {
		if ls := st.LastSaveUnixNS; oldest < 0 || ls < oldest {
			oldest = ls
		}
	}
	if oldest <= 0 {
		return 0
	}
	return oldest / int64(time.Second)
}

const errNoPersistence = "ERR persistence is disabled (start kvserve with -aof)"

// bgsaveCmd and lastsaveCmd handle BGSAVE and LASTSAVE.
func (s *server) bgsaveCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	if s.persist == nil {
		return fail(w, errNoPersistence)
	}
	if !s.beginSave() {
		return fail(w, "ERR background save already in progress")
	}
	go s.runSave()
	w.WriteSimple("Background saving started")
	return false, false, false
}

func (s *server) lastsaveCmd(w *resp.Writer, _ [][]byte, _ *connState) (quit, monitor, isErr bool) {
	if s.persist == nil {
		return fail(w, errNoPersistence)
	}
	w.WriteInt(lastSaveUnix(s.walStats()))
	return false, false, false
}

// registerPersistMetrics exposes the durability series on /metrics:
// the fsync latency histogram (fed by the logs' fsync observer) and the
// AOF rows of the series table.
func (t *serverTele) registerPersistMetrics(s *server) {
	if s.persist == nil {
		return
	}
	fsyncHist := t.reg.Histogram("addrkv_aof_fsync_seconds",
		"Wall-clock latency of AOF fsync barriers.", 1e-9, nil)
	c := s.sys.Cluster()
	for i := 0; i < c.NumShards(); i++ {
		c.WAL(i).SetFsyncObserver(func(ns int64) { fsyncHist.Observe(uint64(ns)) })
	}
	s.exportSeries(withAOF)
}

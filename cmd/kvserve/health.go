// Fleet observability for cluster mode: bus heartbeats, per-peer
// liveness, and cluster-wide metric aggregation.
//
// Every -heartbeat-interval, one goroutine per peer sends a Heartbeat
// frame over a DEDICATED bus peer (separate from the migration peers,
// so a heartbeat never queues behind a long migration batch call on
// the per-peer mutex and goes falsely suspect). The frame carries this
// node's telemetry digest (internal/health.Digest); the receiver
// stamps the sender alive and replies with an ack, which stamps the
// receiver alive on our side — liveness evidence flows both ways on
// every exchange. Down-detection is receiver-side (absence of beats),
// so a dead peer is declared down within DownAfter·Interval without
// any dial ever having to time out on the deadline path.
//
// The digest is built exclusively from read-only surfaces — Report(),
// RuntimeStats(), the latency histogram snapshot — the same paths a
// /metrics scrape uses, so a heartbeat-on run stays bit-for-bit
// identical to a heartbeat-off run (pinned by the differential tests
// in cluster_health_test.go). Health state lives under the tracker's
// own mutex; no shard lock is ever taken to publish or read it.
//
// Aggregation: /cluster/metrics and /cluster/snapshot.json (and the
// CLUSTER HEALTH command) fan a DigestGet out to every non-down peer
// concurrently and merge the digests into one fleet view, Prometheus
// series labeled node="i". A node that is down or does not answer
// contributes up=0 and no digest-derived series — a scraper watches
// series disappear, not go stale.
package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"addrkv/internal/cluster"
	"addrkv/internal/health"
)

// defaultHeartbeatEvery is the -heartbeat-interval default: frequent
// enough that the default down deadline (4 missed intervals) detects a
// dead node in ~2s, infrequent enough to stay invisible in overhead
// measurements.
const defaultHeartbeatEvery = 500 * time.Millisecond

// buildDigest snapshots this node's serving telemetry into a digest.
// Read-only: the engine is never written, no shard worker is disturbed,
// and no modeled cycles are charged.
func (s *server) buildDigest() *health.Digest {
	cl := s.clus
	v := s.view()
	rep := v.rep
	d := &health.Digest{
		Node:           cl.node.Self(),
		MapVersion:     cl.node.Version(),
		SlotsOwned:     uint32(cl.node.OwnedSlots()),
		SlotsMigrating: uint32(len(cl.node.MigratingSlots())),
		SlotsImporting: uint32(len(cl.node.ImportingSlots())),
		Ops:            rep.Ops,
		Gets:           rep.Stats.Gets,
		FastHits:       rep.Stats.FastHits,
		UsedBytes:      uint64(v.used),
		LatP50US:       us(v.lat.P50),
		LatP99US:       us(v.lat.P99),
		Shards:         make([]health.ShardDigest, len(rep.PerShard)),
	}
	for i, st := range rep.PerShard {
		sd := health.ShardDigest{Ops: st.Ops, Gets: st.Gets, FastHits: st.FastHits, Keys: uint64(v.keys[i])}
		if i < len(v.ws) {
			sd.QueueDepth = uint32(v.ws[i].Depth)
		}
		d.Keys += sd.Keys
		d.Shards[i] = sd
	}
	// Ops/s over the window since the last digest build — the sender
	// computes its own rate so the aggregator needs no scrape history.
	now := time.Now()
	cl.rateMu.Lock()
	if !cl.lastAt.IsZero() && now.After(cl.lastAt) && rep.Ops >= cl.lastOps {
		d.OpsPerSec = float64(rep.Ops-cl.lastOps) / now.Sub(cl.lastAt).Seconds()
	}
	cl.lastOps, cl.lastAt = rep.Ops, now
	cl.rateMu.Unlock()
	return d
}

// clusterDigest returns this node's current digest and its encoding,
// cached for half a heartbeat interval so concurrent heartbeat loops
// and DigestGet replies share one build instead of re-snapshotting the
// report per peer.
func (s *server) clusterDigest() (*health.Digest, []byte) {
	cl := s.clus
	ttl := cl.hbEvery / 2
	if ttl <= 0 {
		ttl = 100 * time.Millisecond
	}
	cl.digMu.Lock()
	defer cl.digMu.Unlock()
	if cl.digCur != nil && time.Since(cl.digAt) < ttl {
		return cl.digCur, cl.digEnc
	}
	d := s.buildDigest()
	cl.digCur = d
	cl.digEnc = d.Encode(nil)
	cl.digAt = time.Now()
	// Keep the tracker's own-row digest fresh too, so a snapshot taken
	// without a fan-out still shows this node's numbers.
	cl.health.Alive(cl.node.Self(), d)
	return cl.digCur, cl.digEnc
}

// startHeartbeats launches one heartbeat loop per peer. No-op when the
// interval is zero (heartbeats disabled).
func (s *server) startHeartbeats() {
	cl := s.clus
	if cl.hbEvery <= 0 {
		return
	}
	cl.hbOn.Store(true)
	cl.hbStop = make(chan struct{})
	for i, p := range cl.hbPeers {
		if p == nil {
			continue
		}
		cl.hbWG.Add(1)
		go s.heartbeatLoop(i, p)
	}
}

// heartbeatLoop sends this node's digest to one peer every interval.
// A successful exchange is liveness evidence for the peer (its ack
// proves it served the call); a failure only bumps the failure counter
// — the peer goes suspect/down on the receiver-side deadline, never on
// one lost call.
func (s *server) heartbeatLoop(peer int, p *cluster.Peer) {
	cl := s.clus
	defer cl.hbWG.Done()
	t := time.NewTicker(cl.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !cl.hbOn.Load() {
				continue
			}
			_, enc := s.clusterDigest()
			if _, err := p.Call(cluster.MsgHeartbeat, enc); err != nil {
				cl.hbFails.Add(1)
				continue
			}
			cl.hbSent.Add(1)
			cl.health.Alive(peer, nil)
		case <-cl.hbStop:
			return
		}
	}
}

// stopHeartbeats stops the loops and waits for in-flight sends.
// Idempotent: a node killed explicitly by a test is closed again by
// its cleanup hook.
func (cl *clusterState) stopHeartbeats() {
	if cl.hbStop != nil {
		close(cl.hbStop)
		cl.hbWG.Wait()
		cl.hbStop = nil
	}
}

// collectFleet fans a DigestGet out to every peer the tracker does not
// already consider down (dialing a declared-dead node would stall the
// aggregation behind connect timeouts for no information) and merges
// the replies with this node's own digest. Peers are queried
// concurrently; the wall clock cost is one bus round trip, not N.
func (s *server) collectFleet() []fleetNode {
	cl := s.clus
	snap := cl.health.Snapshot()
	m := cl.node.Map()
	out := make([]fleetNode, len(snap))
	var wg sync.WaitGroup
	for i, nh := range snap {
		out[i] = fleetNode{Node: i, Info: m.Nodes[i], State: nh.State, Age: nh.Age, Beats: nh.Beats}
		switch {
		case i == cl.node.Self():
			d, _ := s.clusterDigest()
			out[i].Up, out[i].Digest = true, d
		case nh.State == health.StateDown || cl.hbPeers[i] == nil:
			// up=0, no digest series.
		default:
			wg.Add(1)
			go func(i int, p *cluster.Peer) {
				defer wg.Done()
				// CallCopy: the reply payload aliases the peer's reused
				// read buffer, and the heartbeat loop shares this peer —
				// the copy must happen under the peer's lock.
				rep, err := p.CallCopy(cluster.MsgDigestGet, nil)
				if err != nil || rep.Type != cluster.MsgDigest {
					return
				}
				d, err := health.DecodeDigest(rep.Payload)
				if err != nil {
					return
				}
				cl.health.Alive(i, d)
				out[i].Up, out[i].Digest = true, d
			}(i, cl.hbPeers[i])
		}
	}
	wg.Wait()
	return out
}

// degraded reports whether any slot-owning node is suspect or down;
// stateName is the cluster_state value that says so.
func (cl *clusterState) degraded() bool { return cl.health.Degraded(cl.node.Map().Owners()) }

func (cl *clusterState) stateName() string {
	if cl.degraded() {
		return "degraded"
	}
	return "ok"
}

// clusterMetricsHandler serves /cluster/metrics: the fleet view as
// Prometheus text, every series labeled by node index.
func (s *server) clusterMetricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(fleetMetrics(s.collectFleet())))
}

// The /cluster/snapshot.json schema. Field order and node ordering are
// fixed, so two snapshots of the same fleet state are byte-comparable;
// kvtop and scripts/health consume this form.
type clusterSnapshot struct {
	Name       string                 `json:"name"`
	SourceNode int                    `json:"source_node"`
	MapVersion uint64                 `json:"map_version"`
	State      string                 `json:"cluster_state"`
	Heartbeat  heartbeatSnapshot      `json:"heartbeat"`
	Nodes      []fleetNodeSnapshot    `json:"nodes"`
	Migration  *migrationSnapshotJSON `json:"migration,omitempty"`
}

type heartbeatSnapshot struct {
	Enabled    bool    `json:"enabled"`
	On         bool    `json:"on"`
	IntervalMS float64 `json:"interval_ms"`
	DownAfter  int     `json:"down_after"`
	Sent       uint64  `json:"sent"`
	Failures   uint64  `json:"failures"`
}

type fleetNodeSnapshot struct {
	Node   int             `json:"node"`
	Addr   string          `json:"addr"`
	Bus    string          `json:"bus"`
	State  string          `json:"state"`
	Up     bool            `json:"up"`
	AgeMS  float64         `json:"age_ms"`
	Beats  uint64          `json:"beats"`
	Digest *digestSnapshot `json:"digest,omitempty"`
}

type digestSnapshot struct {
	MapVersion     uint64            `json:"map_version"`
	SlotsOwned     uint32            `json:"slots_owned"`
	SlotsMigrating uint32            `json:"slots_migrating"`
	SlotsImporting uint32            `json:"slots_importing"`
	Ops            uint64            `json:"ops"`
	Keys           uint64            `json:"keys"`
	UsedBytes      uint64            `json:"used_bytes"`
	HitRate        float64           `json:"hit_rate"`
	QueueDepth     uint64            `json:"queue_depth"`
	OpsPerSec      float64           `json:"ops_per_sec"`
	LatP50US       float64           `json:"lat_p50_us"`
	LatP99US       float64           `json:"lat_p99_us"`
	Shards         []shardDigestJSON `json:"shards,omitempty"`
}

type shardDigestJSON struct {
	Ops        uint64  `json:"ops"`
	Keys       uint64  `json:"keys"`
	HitRate    float64 `json:"hit_rate"`
	QueueDepth uint32  `json:"queue_depth"`
}

type migrationSnapshotJSON struct {
	Slot           uint16 `json:"slot"`
	Dest           int    `json:"dest"`
	Active         bool   `json:"active"`
	Resumed        bool   `json:"resumed"`
	Failed         bool   `json:"failed"`
	KeysTotal      int    `json:"keys_total"`
	KeysShipped    int    `json:"keys_shipped"`
	BatchesTotal   int    `json:"batches_total"`
	BatchesShipped int    `json:"batches_shipped"`
	Bytes          int    `json:"bytes"`
	ElapsedUS      int64  `json:"elapsed_us"`
	EtaUS          int64  `json:"eta_us"`
}

// clusterSnapshotPayload builds the /cluster/snapshot.json value.
func (s *server) clusterSnapshotPayload() *clusterSnapshot {
	cl := s.clus
	snap := &clusterSnapshot{
		Name:       "kvserve-cluster",
		SourceNode: cl.node.Self(),
		MapVersion: cl.node.Version(),
		State:      cl.stateName(),
		Heartbeat: heartbeatSnapshot{
			Enabled:    cl.hbEvery > 0,
			On:         cl.hbOn.Load(),
			IntervalMS: float64(cl.hbEvery) / 1e6,
			DownAfter:  cl.health.DownAfter(),
			Sent:       cl.hbSent.Load(),
			Failures:   cl.hbFails.Load(),
		},
	}
	for _, fn := range s.collectFleet() {
		ns := fleetNodeSnapshot{
			Node:  fn.Node,
			Addr:  fn.Info.Addr,
			Bus:   fn.Info.Bus,
			State: fn.State.String(),
			Up:    fn.Up,
			AgeMS: float64(fn.Age) / 1e6,
			Beats: fn.Beats,
		}
		if d := fn.Digest; d != nil {
			ds := &digestSnapshot{
				MapVersion:     d.MapVersion,
				SlotsOwned:     d.SlotsOwned,
				SlotsMigrating: d.SlotsMigrating,
				SlotsImporting: d.SlotsImporting,
				Ops:            d.Ops,
				Keys:           d.Keys,
				UsedBytes:      d.UsedBytes,
				HitRate:        d.HitRate(),
				QueueDepth:     d.QueueDepth(),
				OpsPerSec:      d.OpsPerSec,
				LatP50US:       d.LatP50US,
				LatP99US:       d.LatP99US,
			}
			for _, sd := range d.Shards {
				ds.Shards = append(ds.Shards, shardDigestJSON{
					Ops: sd.Ops, Keys: sd.Keys, HitRate: sd.HitRate(), QueueDepth: sd.QueueDepth,
				})
			}
			ns.Digest = ds
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	if mp, ok := cl.node.Progress(); ok {
		snap.Migration = &migrationSnapshotJSON{
			Slot:           mp.Slot,
			Dest:           mp.Dest,
			Active:         mp.Active,
			Resumed:        mp.Resumed,
			Failed:         mp.Failed,
			KeysTotal:      mp.KeysTotal,
			KeysShipped:    mp.KeysShipped,
			BatchesTotal:   mp.BatchesTotal,
			BatchesShipped: mp.BatchesShipped,
			Bytes:          mp.Bytes,
			ElapsedUS:      mp.Elapsed.Microseconds(),
			EtaUS:          mp.ETA.Microseconds(),
		}
	}
	return snap
}

// clusterSnapshotHandler serves /cluster/snapshot.json.
func (s *server) clusterSnapshotHandler(w http.ResponseWriter, _ *http.Request) {
	b, err := json.MarshalIndent(s.clusterSnapshotPayload(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

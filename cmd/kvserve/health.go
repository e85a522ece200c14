// Fleet observability for cluster mode: bus heartbeats, per-peer
// liveness, and cluster-wide metric aggregation.
//
// Every -heartbeat-interval, one goroutine per peer sends a Heartbeat
// frame over a DEDICATED bus peer (separate from the migration peers,
// so a heartbeat never queues behind a long migration batch call on
// the per-peer mutex and goes falsely suspect). The frame carries only
// this node's index and reads no serving state; the receiver stamps
// the sender alive and replies with an empty ack, which stamps the
// receiver alive on our side — liveness evidence flows both ways on
// every exchange. Down-detection is receiver-side (absence of beats),
// so a dead peer is declared down within DownAfter·Interval without
// any dial ever having to time out on the deadline path.
//
// Telemetry travels only when asked for: /cluster/metrics and CLUSTER
// HEALTH fan a DigestGet out to every non-down peer concurrently, parse
// each answer (series.go's report rows as "key value" lines; this
// node's own report goes through the same parser) and render one fleet
// view, Prometheus series labeled node="i". A report reads the view
// every surface reads, so a scraped or heartbeating run stays
// bit-for-bit identical to a quiet one (pinned by the differential
// tests in cluster_health_test.go). A node that is down, does not
// answer, or answers what does not parse contributes up=0 and no
// report series — a scraper watches series disappear, not go stale.
package main

import (
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

// clusterReport returns this node's encoded report, cached for half a
// heartbeat interval: concurrent scrapers (each fanning DigestGet out to
// every node) share one build instead of each re-snapshotting the
// report, and the cache bounds how short the ops-rate window can get.
func (s *server) clusterReport() []byte {
	cl := s.clus
	ttl := s.cfg.hbEvery / 2
	if ttl <= 0 {
		ttl = 100 * time.Millisecond
	}
	cl.repMu.Lock()
	defer cl.repMu.Unlock()
	if cl.repEnc != nil && time.Since(cl.repAt) < ttl {
		return cl.repEnc
	}
	v := s.view()
	// Ops/s since the previous report — the sender computes its own
	// rate so the collector needs no scrape history.
	now := time.Now()
	if !cl.repAt.IsZero() && now.After(cl.repAt) && v.rep.Ops >= cl.repOps {
		v.opsPerSec = float64(v.rep.Ops-cl.repOps) / now.Sub(cl.repAt).Seconds()
	}
	cl.repEnc, cl.repOps, cl.repAt = encodeReport(v), v.rep.Ops, now
	return cl.repEnc
}

// startHeartbeats launches one heartbeat loop per peer. No-op when the
// interval is zero (heartbeats disabled).
func (s *server) startHeartbeats() {
	cl := s.clus
	if s.cfg.hbEvery <= 0 {
		return
	}
	cl.hbStop = make(chan struct{})
	for i, p := range cl.hbPeers {
		if p == nil {
			continue
		}
		cl.hbWG.Add(1)
		go s.heartbeatLoop(i, p)
	}
}

// heartbeatLoop sends this node's index to one peer every interval.
// A successful exchange is liveness evidence for the peer (its ack
// proves it served the call); a failure only bumps the failure counter
// — the peer goes suspect/down on the receiver-side deadline, never on
// one lost call.
func (s *server) heartbeatLoop(peer int, p *cluster.Peer) {
	cl := s.clus
	defer cl.hbWG.Done()
	self := cluster.EncodeU64(uint64(cl.node.Self()))
	t := time.NewTicker(s.cfg.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := p.Call(cluster.MsgHeartbeat, self); err != nil {
				cl.hbFails.Add(1)
				continue
			}
			cl.hbSent.Add(1)
			cl.health.Alive(peer)
		case <-cl.hbStop:
			return
		}
	}
}

// stopHeartbeats stops the loops and waits for in-flight sends. A
// second call, or one without running loops, is a no-op.
func (cl *clusterState) stopHeartbeats() {
	if cl.hbStop != nil {
		close(cl.hbStop)
		cl.hbWG.Wait()
		cl.hbStop = nil
	}
}

// collectFleet fans a DigestGet out to every peer the tracker does not
// already consider down (dialing a declared-dead node would stall the
// aggregation behind connect timeouts for no information) and parses
// the replies beside this node's own report. Peers are queried
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
			out[i].Report, _ = parseReport(s.clusterReport())
		case nh.State == health.StateDown || cl.hbPeers[i] == nil:
			// up=0, no report series.
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
				if out[i].Report, err = parseReport(rep.Payload); err == nil {
					cl.health.Alive(i)
				}
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

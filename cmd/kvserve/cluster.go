// Cluster mode for kvserve (-cluster-nodes): this node joins an
// N-member hash-slot cluster. Keys hash to one of 16384 slots (the
// same xxh64 route hash that picks the home shard, so a slot's keys
// never split across shards); each node owns a contiguous share and
// answers -MOVED/-ASK redirects for the rest, Redis-cluster style.
// Nodes exchange the versioned slot map and migration streams over a
// small node-to-node bus (internal/cluster); the client data path
// never crosses the bus.
//
// Correctness is anchored in the shard op gate, not in classify-time
// routing: every single-key op consults the node's slot view UNDER its
// shard lock (shard.SetOpGate), so a migration can never race a
// buffered op into serving a key that already left the node. Denied
// ops surface as OpOutcome.Denied and flushPending rewrites them into
// redirects. ASKING arms a one-shot gate bypass for the next command,
// honored only while the key's slot is actually importing.
//
// CLUSTER MIGRATE <slot> <node> runs a live migration: records stream
// to the destination in CRC'd batches while the slot dual-serves,
// ownership flips atomically at commit, and the destination re-warms
// its STLT from the migrated records (the paper's insertSTLT step) —
// each installed batch emits an stlt.rewarm trace span so the warm-up
// cliff is measurable.
package main

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"addrkv/internal/cluster"
	"addrkv/internal/health"
	"addrkv/internal/resp"
	"addrkv/internal/trace"
	"addrkv/internal/wal"
)

// clusterState is the server's cluster runtime: the node's slot view,
// the bus it serves, and its handles to every peer's bus.
type clusterState struct {
	node  *cluster.Node
	bus   *cluster.BusServer
	peers []*cluster.Peer // node index -> bus handle, nil at self

	// migMu serializes operator-issued CLUSTER MIGRATE commands: one
	// migration at a time is the supported regime (concurrent sources
	// would race the map epoch — see internal/cluster/migrate.go).
	migMu sync.Mutex

	// Fleet observability (see health.go). hbPeers are DEDICATED bus
	// handles for heartbeats and digest collection — separate from the
	// migration peers, so a heartbeat never waits behind a migration
	// batch call on the per-peer mutex and turns falsely suspect.
	health  *health.Tracker
	hbPeers []*cluster.Peer // node index -> heartbeat bus handle, nil at self
	hbOn    atomic.Bool     // runtime toggle (CLUSTER HEARTBEAT ON|OFF)
	hbStop  chan struct{}
	hbWG    sync.WaitGroup
	hbSent  atomic.Uint64
	hbFails atomic.Uint64

	// Cached own digest (see clusterDigest) and the ops-rate window.
	digMu   sync.Mutex
	digCur  *health.Digest
	digEnc  []byte
	digAt   time.Time
	rateMu  sync.Mutex
	lastOps uint64
	lastAt  time.Time
}

// parseClusterNodes parses the -cluster-nodes spec: comma-separated
// clientAddr@busAddr pairs, ordered by node index.
func parseClusterNodes(spec string) ([]cluster.NodeInfo, error) {
	var nodes []cluster.NodeInfo
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		client, bus, ok := strings.Cut(part, "@")
		if !ok || client == "" || bus == "" {
			return nil, fmt.Errorf("cluster node %q: want clientAddr@busAddr", part)
		}
		nodes = append(nodes, cluster.NodeInfo{Addr: client, Bus: bus})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-cluster-nodes is empty")
	}
	return nodes, nil
}

// setupCluster brings the cluster runtime up: the evenly split slot
// map, the bus listener, peer handles (plus the dedicated heartbeat
// handles), the health tracker, the shard op gate, the cluster series,
// and the heartbeat loops.
func (s *server) setupCluster() error {
	cfg := &s.cfg
	nodes, self := cfg.nodes, cfg.self
	ln, err := net.Listen("tcp", nodes[self].Bus)
	if err != nil {
		return fmt.Errorf("cluster: bus listen: %w", err)
	}
	cl := &clusterState{
		node:    cluster.NewNode(self, cluster.NewSlotMap(nodes)),
		peers:   make([]*cluster.Peer, len(nodes)),
		hbPeers: make([]*cluster.Peer, len(nodes)),
		health: health.NewTracker(len(nodes), self, health.Config{
			Interval:     cfg.hbEvery,
			SuspectAfter: cfg.hbSuspect,
			DownAfter:    cfg.hbDown,
		}),
	}
	// A heartbeat call should fail fast relative to its own period —
	// detection is receiver-side anyway, so a slow call buys nothing.
	hbTimeout := 2 * cfg.hbEvery
	if hbTimeout < time.Second {
		hbTimeout = time.Second
	}
	for i, n := range nodes {
		if i != self {
			cl.peers[i] = cluster.NewPeer(n.Bus)
			hp := cluster.NewPeer(n.Bus)
			hp.Timeout = hbTimeout
			cl.hbPeers[i] = hp
		}
	}
	s.clus = cl
	cl.bus = cluster.ServeBus(ln, s.busHandler)
	s.sys.Cluster().SetOpGate(cl.node.Gate)
	s.exportSeries(withCluster)
	s.startHeartbeats()
	return nil
}

// closeCluster tears the heartbeat loops, the bus, and the peer
// connections down (after the client connections drained).
func (s *server) closeCluster() {
	if s.clus == nil {
		return
	}
	s.clus.stopHeartbeats()
	s.clus.bus.Close()
	for _, p := range s.clus.peers {
		if p != nil {
			p.Close()
		}
	}
	for _, p := range s.clus.hbPeers {
		if p != nil {
			p.Close()
		}
	}
}

// busHandler answers one bus request. It mirrors the protocol the
// migration runner speaks (internal/cluster): map exchange, import
// announcements, record batches, and the commit that flips ownership.
func (s *server) busHandler(m cluster.Msg) (cluster.MsgType, []byte) {
	n := s.clus.node
	switch m.Type {
	case cluster.MsgHello, cluster.MsgMapGet:
		return cluster.MsgMap, n.Map().Encode(nil)
	case cluster.MsgMapUpdate:
		sm, err := cluster.DecodeSlotMap(m.Payload)
		if err != nil {
			return cluster.MsgErr, []byte(err.Error())
		}
		n.AdoptMap(sm)
		return cluster.MsgAck, cluster.EncodeU64(n.Version())
	case cluster.MsgMigStart:
		slot, src, err := cluster.DecodeSlotNode(m.Payload)
		if err != nil {
			return cluster.MsgErr, []byte(err.Error())
		}
		if err := n.BeginImport(slot, src); err != nil {
			return cluster.MsgErr, []byte(err.Error())
		}
		return cluster.MsgAck, nil
	case cluster.MsgMigBatch:
		slot, src, rewarm, frames, err := cluster.DecodeMigBatch(m.Payload)
		if err != nil {
			return cluster.MsgErr, []byte(err.Error())
		}
		// Only install while the slot is importing from exactly this
		// source: a late duplicate batch (retried copy raced by the
		// original on a broken connection) arriving after the commit —
		// and after ASK-written client updates — must not re-install
		// stale records over newer acknowledged writes.
		if from, ok := n.ImportingFrom(slot); !ok || from != src {
			return cluster.MsgErr, []byte(fmt.Sprintf("slot %d not importing from node %d", slot, src))
		}
		res := wal.Scan(frames)
		if res.Valid != int64(len(frames)) {
			return cluster.MsgErr, []byte("torn migration batch")
		}
		// One stlt.rewarm span per installed batch: how many records
		// landed and how many STLT rows were warmed, so TRACE DUMP shows
		// the destination's warm-up (or, with rewarm off, its absence).
		sp := s.tracer.BeginSampled("stlt.rewarm", nil)
		installed, rewarmed := s.sys.Cluster().InstallRecords(res.Records, rewarm)
		sp.EventRel(trace.EvSTLTRewarm, 0, int64(installed), int64(rewarmed), int64(slot))
		s.tracer.Finish(sp, -1, false, false)
		n.Metrics.ImpBatches.Add(1)
		n.Metrics.ImpRecords.Add(uint64(installed))
		n.Metrics.ImpRewarmed.Add(uint64(rewarmed))
		return cluster.MsgAck, cluster.EncodeU64(uint64(installed))
	case cluster.MsgMigCommit:
		slot, sm, err := cluster.DecodeMigCommit(m.Payload)
		if err != nil {
			return cluster.MsgErr, []byte(err.Error())
		}
		n.CommitImport(slot, sm)
		return cluster.MsgAck, cluster.EncodeU64(n.Version())
	case cluster.MsgHeartbeat:
		d, err := health.DecodeDigest(m.Payload)
		if err != nil {
			return cluster.MsgErr, []byte(err.Error())
		}
		s.clus.health.Alive(d.Node, d)
		return cluster.MsgAck, cluster.EncodeU64(n.Version())
	case cluster.MsgDigestGet:
		_, enc := s.clusterDigest()
		return cluster.MsgDigest, enc
	}
	return cluster.MsgErr, []byte(fmt.Sprintf("unhandled bus message type %d", m.Type))
}

// clusterConsumeAsking consumes the connection's one-shot ASKING flag
// (it covers exactly the next command, Redis semantics) for a
// single-key command and reports whether it may bypass the op gate —
// only when its key's slot is actually importing here; ASKING toward a
// slot this node has no claim on still answers MOVED.
func (s *server) clusterConsumeAsking(cs *connState, key []byte) bool {
	if !cs.asking {
		return false
	}
	cs.asking = false
	_, act, _ := s.clus.node.RouteKey(key, true)
	return act == cluster.RouteServeBypass
}

// clusterRedirectMsg renders the redirect for a key the op gate
// denied, resolved against the node's CURRENT slot view.
func (s *server) clusterRedirectMsg(key []byte) string {
	slot, kind, addr := s.clus.node.RedirectFor(key)
	met := &s.clus.node.Metrics
	switch kind {
	case cluster.RedirectMoved:
		met.Moved.Add(1)
		return fmt.Sprintf("MOVED %d %s", slot, addr)
	case cluster.RedirectAsk:
		met.Asked.Add(1)
		return fmt.Sprintf("ASK %d %s", slot, addr)
	default:
		met.TryAgain.Add(1)
		return "TRYAGAIN slot state changed, retry"
	}
}

// clusterRefuses applies the classify-time slot rules to a barrier
// command, from its row. A keyed (multi-key) command: every key must
// hash to ONE slot (CROSSSLOT otherwise), the slot must be owned here
// (MOVED otherwise) and stable (TRYAGAIN while migrating or importing —
// batches get no per-key dual-serve split). A keyspace walk
// (SCAN/RANGE) is refused while ANY slot is migrating or importing
// here: it has no single home key for the shard gate to rule on, and
// mid-migration a key can legitimately live on either node, so an
// ordered page would silently skip or duplicate records crossing
// nodes. Returns true when it wrote the refusal.
func (s *server) clusterRefuses(w *resp.Writer, c *command, args [][]byte) bool {
	n := s.clus.node
	moving := false
	switch {
	case c.first > 0:
		slot := cluster.SlotOf(args[c.first])
		for i, last := c.first+c.step, c.lastKey(len(args)); i <= last; i += c.step {
			if cluster.SlotOf(args[i]) != slot {
				w.WriteError("CROSSSLOT Keys in request don't hash to the same slot")
				return true
			}
		}
		owner, ownerAddr, migrating, importing := n.SlotInfo(slot)
		if owner != n.Self() {
			n.Metrics.Moved.Add(1)
			w.WriteError(fmt.Sprintf("MOVED %d %s", slot, ownerAddr))
			return true
		}
		moving = migrating || importing
	case c.scan:
		moving = len(n.MigratingSlots()) > 0 || len(n.ImportingSlots()) > 0
	}
	if !moving {
		return false
	}
	n.Metrics.TryAgain.Add(1)
	w.WriteError("TRYAGAIN slot is migrating, retry")
	return true
}

// clusterTryAgain answers a batch the op gate denied mid-flight: the
// slot started migrating between the classify check and execution.
func (s *server) clusterTryAgain(w *resp.Writer) (quit, monitor, isErr bool) {
	s.clus.node.Metrics.TryAgain.Add(1)
	return fail(w, "TRYAGAIN slot is migrating, retry")
}

// clusterCmd handles CLUSTER SLOTS | INFO | HEALTH | HEARTBEAT |
// MIGRATE <slot> <node> | MIGRATE STATUS.
func (s *server) clusterCmd(w *resp.Writer, args [][]byte, _ *connState) (quit, monitor, isErr bool) {
	if s.clus == nil {
		return fail(w, "ERR This instance has cluster support disabled")
	}
	if len(args) < 2 {
		return wrongArity(w, "cluster")
	}
	switch strings.ToLower(string(args[1])) {
	case "slots":
		// One entry per contiguous owned range: start, end, then the
		// owning node as [clientAddr, nodeIndex, healthState].
		m := s.clus.node.Map()
		ranges := m.Ranges()
		w.WriteArrayHeader(len(ranges))
		for _, r := range ranges {
			w.WriteArrayHeader(3)
			w.WriteInt(int64(r.Start))
			w.WriteInt(int64(r.End))
			w.WriteArrayHeader(3)
			w.WriteBulkString(m.Nodes[r.Node].Addr)
			w.WriteInt(int64(r.Node))
			w.WriteBulkString(s.clus.health.State(r.Node).String())
		}
	case "info":
		w.WriteBulk([]byte(renderText(s.view(), onClusterInfo)))
	case "health":
		if len(args) != 2 {
			return wrongArity(w, "cluster health")
		}
		w.WriteBulk([]byte(fleetText(s.collectFleet())))
	case "heartbeat":
		if len(args) != 3 {
			return fail(w, "ERR usage: CLUSTER HEARTBEAT ON|OFF|STATUS")
		}
		switch strings.ToLower(string(args[2])) {
		case "on":
			if s.cfg.hbEvery <= 0 {
				return fail(w, "ERR heartbeats disabled (-heartbeat-interval 0)")
			}
			s.clus.hbOn.Store(true)
			w.WriteSimple("OK")
		case "off":
			s.clus.hbOn.Store(false)
			w.WriteSimple("OK")
		case "status":
			status := renderText(s.view(), onHeartbeat)
			w.WriteBulk([]byte(strings.ReplaceAll(status, "cluster_heartbeat", "heartbeat")))
		default:
			return fail(w, "ERR usage: CLUSTER HEARTBEAT ON|OFF|STATUS")
		}
	case "migrate":
		if len(args) == 3 && strings.EqualFold(string(args[2]), "status") {
			v := s.view()
			if !v.migOK {
				return fail(w, "ERR no migration has run on this node")
			}
			w.WriteBulk([]byte(renderText(v, onMigrate)))
			break
		}
		if len(args) != 4 {
			return fail(w, "ERR usage: CLUSTER MIGRATE <slot> <dest-node> | CLUSTER MIGRATE STATUS")
		}
		slot, err1 := strconv.Atoi(string(args[2]))
		dest, err2 := strconv.Atoi(string(args[3]))
		if err1 != nil || err2 != nil || slot < 0 || slot >= cluster.NumSlots {
			return fail(w, "ERR invalid slot or node index")
		}
		res, err := s.clusterMigrate(uint16(slot), dest)
		if err != nil {
			return fail(w, fmt.Sprintf("ERR migrate: %v", err))
		}
		w.WriteSimple(fmt.Sprintf("OK slot=%d dest=%d keys=%d bytes=%d batches=%d rewarm=%v us=%d",
			res.Slot, res.Dest, res.Keys, res.Bytes, res.Batches, res.Rewarm,
			res.Duration.Microseconds()))
	default:
		return fail(w, fmt.Sprintf("ERR unknown CLUSTER subcommand '%s'", args[1]))
	}
	return false, false, false
}

// clusterFlushGuard refuses FLUSHALL while any slot migration
// involves this node: records already shipped to a destination would
// survive a local flush and resurface once ownership commits, making
// the flush silently partial. On success it holds migMu — so no new
// source-side migration can start mid-flush — until the caller runs
// release. (An import announced over the bus during the flush is not
// excluded; FLUSHALL remains node-local and the importing source is
// unaffected either way.) Standalone mode passes trivially.
func (s *server) clusterFlushGuard() (release func(), err error) {
	cl := s.clus
	if cl == nil {
		return func() {}, nil
	}
	if !cl.migMu.TryLock() {
		return nil, fmt.Errorf("slot migration in progress; retry after it commits")
	}
	n := cl.node
	if len(n.MigratingSlots()) > 0 || len(n.ImportingSlots()) > 0 {
		cl.migMu.Unlock()
		return nil, fmt.Errorf("slots migrating or importing; retry after the migration commits")
	}
	return cl.migMu.Unlock, nil
}

// clusterMigrate runs one operator-issued slot migration. It blocks
// the issuing connection until committed or failed; every other
// connection keeps being served throughout (dual-serve via the gate).
func (s *server) clusterMigrate(slot uint16, dest int) (cluster.MigrationResult, error) {
	cl := s.clus
	cl.migMu.Lock()
	defer cl.migMu.Unlock()
	return cl.node.Migrate(s.sys.Cluster(), func(i int) *cluster.Peer {
		if i < 0 || i >= len(cl.peers) {
			return nil
		}
		return cl.peers[i]
	}, slot, dest, cluster.MigrateOpts{
		BatchKeys: s.cfg.migBatch,
		Rewarm:    true,
		// One mig.progress span per shipped batch (plus one at commit):
		// records shipped so far, the run's work list, and the slot, so
		// TRACE DUMP reconstructs the migration's advancement timeline.
		OnProgress: func(mp cluster.MigrationProgress) {
			sp := s.tracer.BeginSampled("mig.progress", nil)
			sp.EventRel(trace.EvMigProgress, 0, int64(mp.KeysShipped), int64(mp.KeysTotal), int64(mp.Slot))
			s.tracer.Finish(sp, -1, false, false)
		},
	})
}

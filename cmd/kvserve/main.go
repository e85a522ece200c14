// Command kvserve runs a Redis-protocol key-value server backed by the
// simulated addrkv engine — the zero-to-running demo of the paper's
// setup (Figure 1 measures Redis over a Unix domain socket with
// pipelined requests), scaled out across -shards simulated machines.
//
// Each shard is an independent simulated core (own caches, TLBs, STB,
// and an STLT sized at keys/shards); keys route to shards by a stable
// hash, so concurrent clients touching different shards proceed in
// parallel with only per-shard locking.
//
// The connection path is pipelined: each serve loop drains every
// command a client has in flight (up to maxPipeline, 1024), dispatches
// them all, and flushes the replies in one write — the amortization
// that makes Figure 1's pipelined Redis setup fast, applied to the real
// network front-end. Multi-key commands (MGET/MSET/DEL) group their
// keys by home shard and execute one locked batch per shard, charging
// exactly the modeled cycles of N sequential ops. A connection's reply
// buffer is resp.IOBufLen (16 KiB), the size of its read buffer: a
// burst's replies beyond it flush early. -idle-timeout reaps silent
// connections, and -maxconns sheds new clients gracefully with an
// error reply.
//
// Commands: PING, ECHO, GET, SET, DEL, EXISTS, MGET, MSET, DBSIZE,
// SCAN cursor [MATCH pat] [COUNT n], RANGE start end [limit], EXPIRE,
// PEXPIRE, TTL, PTTL, INFO, RESETSTATS, FLUSHALL, SLOWLOG
// GET/RESET/LEN, MONITOR, TRACE ON/OFF/STATUS/DUMP, BGSAVE, LASTSAVE,
// QUIT, and in cluster mode CLUSTER
// SLOTS/INFO/HEALTH/HEARTBEAT/MIGRATE plus ASKING. SCAN MATCH filters
// keys server-side with a Redis-style glob after the cursor decodes;
// COUNT bounds keys scanned, not keys returned.
//
// SCAN and RANGE need an ordered index (-index rbtree or btree); on a
// hash index they answer a typed error instead of a silent empty
// result. Cursors are stateless ("0" starts, "k"+hex resumes strictly
// after the last key), so a cursor walk under concurrent writes never
// duplicates a key and covers every key present for the whole walk.
// EXPIRE/PEXPIRE arm per-key TTLs: expired keys are reaped lazily on
// access plus by an active sweep — a ticker every 100 ms, so an idle
// server still reaps, and one pass per worker drain burst, so a busy
// shard reaps at traffic speed. -maxmemory caps each shard's record
// bytes, evicting by the STLT's in-set LFU rule once a SET crosses the
// cap.
//
// With -cluster-nodes the server joins a hash-slot cluster: keys map
// to 16384 slots, split evenly between the nodes, each node redirects
// the slots it does not own with -MOVED/-ASK, and CLUSTER MIGRATE moves
// a live slot between nodes while both keep serving it (see cluster.go).
//
// With -aof every mutation is appended to a per-shard append-only log
// (group-committed once per worker drain burst, fsynced per
// -aof-fsync) and replayed on startup; BGSAVE compacts each shard's log
// into a snapshot generation in the background while traffic continues.
// INFO reports the *simulated* cycle statistics (aggregate plus a
// section per shard) alongside real wall-clock latency percentiles and
// the networking/pipelining counters, so a client can measure the
// modeled speedup while talking real RESP over a real socket. With
// -metrics-addr the same numbers are served as Prometheus text on
// /metrics (plus /cluster/metrics and net/http/pprof). SIGINT/SIGTERM
// stop the listener, drain in-flight connections, and remove the Unix
// socket file.
//
// main fills one config from the flags; newServer builds a server from
// it, listen binds, start brings up the expiry ticker and the shard
// workers, acceptLoop serves, and close tears down. Tests build servers
// from config literals through the same newServer and close.
//
//	kvserve -mode stlt -keys 100000 -shards 4 -sock /tmp/addrkv.sock
//	kvserve -mode baseline -addr 127.0.0.1:6380 -metrics-addr 127.0.0.1:9090 -maxconns 1024
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"addrkv"
	"addrkv/internal/cluster"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
	"addrkv/internal/trace"
)

// drainTimeout bounds how long shutdown waits for in-flight
// connections before force-closing them.
const drainTimeout = 5 * time.Second

// slowlogCap is how many of the slowest commands SLOWLOG keeps.
const slowlogCap = 128

// maxPipeline caps the commands one drain picks up (and thus the
// replies buffered per serve-loop iteration).
const maxPipeline = 1024

// preloadVsize is the value size of the records -preload loads.
const preloadVsize = 64

// defaultScanCount is SCAN's page size without an explicit COUNT.
const defaultScanCount = 10

// Active expiry: every sweepInterval, and after every worker drain
// burst, each shard samples up to sweepLimit armed deadlines.
const (
	sweepInterval = 100 * time.Millisecond
	sweepLimit    = 20
)

// config is everything a server is built from: main fills it from the
// flags, tests write it as a literal.
type config struct {
	engine addrkv.Options
	// preload loads engine.Keys YCSB records of preloadVsize bytes into
	// a store that recovery left empty.
	preload bool

	// Transport: a Unix socket path (the paper's transport) or a TCP
	// address, plus the optional metrics endpoint.
	sock, addr, metricsAddr string
	// idleTimeout, when positive, is the per-connection read deadline:
	// a client silent for longer is disconnected.
	idleTimeout time.Duration
	// maxConns, when positive, sheds connections beyond this count with
	// an error reply instead of serving them.
	maxConns int

	// Durability: per-shard logs in aofDir, fsynced per aofFsync.
	aof      bool
	aofDir   string
	aofFsync string

	// Cluster mode (nodes non-empty): this node is nodes[self].
	nodes   []cluster.NodeInfo
	self    int
	hbEvery time.Duration // heartbeat period (0 = heartbeats off)
	// migBatch (test-only) stays: the migrate layout golden pins 25 keys in 4 batches; at the default 256 that takes 257 keys of one slot.
	migBatch int
	// hbSuspect, hbDown (test-only) stay: at a 25 ms period the defaults (2, 4) turn a -race stall into a false verdict.
	hbSuspect, hbDown int

	// traceDir is the flight-recorder dump directory. Tracing starts
	// off; TRACE ON [N] sets the rate.
	traceDir string
}

type server struct {
	cfg          config
	sys          *addrkv.System
	tele         *serverTele
	opsSinceMark atomic.Uint64 // keys of keyed commands plus SCAN/RANGE pages run since RESETSTATS

	// queueCap is the per-shard ring capacity once startWorkers has
	// brought the worker runtime up (start always does). Nothing in the
	// server branches on whether it did: single-key commands go to
	// Cluster.Enqueue either way, and a server that never started the
	// workers has them executed in place, lock per op — the reference
	// model the worker-vs-reference differential tests run against.
	queueCap int

	// statsMu orders RESETSTATS/FLUSHALL against INFO and snapshot
	// reads: a reset holds the write lock across every counter it
	// clears, so a concurrent INFO never sees a half-reset mix (engine
	// stats zeroed but server_ops still counting, or vice versa).
	// Data-path commands take no lock here — they only touch the
	// engine's own per-shard locks and lock-free telemetry.
	statsMu sync.RWMutex

	// persist is the durability runtime (nil without -aof).
	persist *persistState

	// Active-expiry ticker (see startExpiry); its counters feed the
	// "# expiry" INFO section.
	sweepStop       chan struct{}
	sweepDone       chan struct{}
	sweepCycles     atomic.Uint64 // completed sweep cycles
	sweepReaped     atomic.Uint64 // keys reaped by sweeps, lifetime
	sweepLastReaped atomic.Uint64 // keys reaped by the most recent cycle

	// clus is the cluster runtime (nil in standalone mode — every
	// cluster hook checks it, so standalone behavior is untouched).
	clus *clusterState

	// Span tracing: the sampling tracer shared with every shard engine,
	// the flight-recorder dump sink (nil without -trace-dir), and a
	// connection sequence so spans name the connection they came from.
	tracer  *trace.Tracer
	dumper  *trace.Dumper
	connSeq atomic.Int64

	metrics   *http.Server // nil without -metrics-addr
	closing   atomic.Bool
	closeOnce sync.Once
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
}

// newServer builds a server from cfg, in dependency order: the engines;
// durability, whose recovery needs fresh engines and so runs before any
// preload; the telemetry and the tracer; then the cluster runtime. From
// here on the logs (the everysec syncer) and the peers (the bus and the
// heartbeats) are served in the background; the expiry ticker and the
// shard workers wait for start.
func newServer(cfg config) (*server, error) {
	sys, err := addrkv.New(cfg.engine)
	if err != nil {
		return nil, err
	}
	s := &server{cfg: cfg, sys: sys, conns: map[net.Conn]struct{}{}}
	if cfg.aof {
		if s.persist, err = openPersistence(sys, cfg.aofDir, cfg.aofFsync); err != nil {
			return nil, err
		}
		// A worker inside the log's barrier holds its P in a system call
		// that is over before the runtime's monitor would hand the P on
		// (two of its ticks, ~100 µs on a busy CPU). A process with one P
		// does nothing else meanwhile — it does not even poll the network,
		// so a connection that kept the log busy starved the others until
		// the monitor's own poll, 10-20 ms later. A second P polls.
		if runtime.GOMAXPROCS(0) < 2 {
			runtime.GOMAXPROCS(2)
		}
	}
	// A preload on top of recovered data would double-apply, so it only
	// runs into an empty store.
	if cfg.preload {
		if s.persist != nil && s.persist.recovered.Ops() > 0 {
			log.Printf("kvserve: skipping -preload, %d keys recovered from %s", sys.Len(), cfg.aofDir)
		} else {
			log.Printf("preloading %d keys (%dB values)...", cfg.engine.Keys, preloadVsize)
			sys.Load(cfg.engine.Keys, preloadVsize)
		}
	}
	s.tele = newServerTele(sys.Cluster().NumShards(), slowlogCap)
	s.initTrace()
	s.tele.reg.OnScrape(func() { s.tele.view.Store(s.view()) })
	s.exportSeries(always)
	if s.persist != nil {
		s.tele.registerPersistMetrics(s)
	}
	if len(cfg.nodes) > 0 {
		if err := s.setupCluster(); err != nil {
			return nil, err
		}
		log.Printf("kvserve: cluster node %d/%d, bus on %s, owning %d slots, heartbeat every %v",
			cfg.self, len(cfg.nodes), s.clus.bus.Addr(), s.clus.node.OwnedSlots(), cfg.hbEvery)
	}
	return s, nil
}

// listen binds the metrics endpoint, when configured, and the client
// listener: the Unix socket (replacing a stale file) or the TCP address.
func (s *server) listen() (net.Listener, error) {
	if s.cfg.metricsAddr != "" {
		msrv, bound, err := startMetricsServer(s.cfg.metricsAddr, s)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		s.metrics = msrv
		log.Printf("kvserve: metrics on http://%s/metrics (pprof on /debug/pprof/)", bound)
	}
	var ln net.Listener
	var err error
	if s.cfg.sock != "" {
		_ = os.Remove(s.cfg.sock)
		ln, err = net.Listen("unix", s.cfg.sock)
	} else {
		ln, err = net.Listen("tcp", s.cfg.addr)
	}
	if err != nil {
		return nil, err
	}
	log.Printf("kvserve: %s engine on %s, %d shard(s), serving %s",
		s.cfg.engine.Mode, s.cfg.engine.Index, s.cfg.engine.Shards, ln.Addr())
	return ln, nil
}

// start brings up what serves in the background: active expiry (the
// sweepInterval ticker and the per-drain sweep), then the per-shard
// workers. The lock-per-op reference model is a server start never ran
// on; a test that needs a settable clock and workers but no ticker calls
// startWorkers alone.
func (s *server) start() error {
	s.startExpiry(sweepInterval)
	if err := s.startWorkers(); err != nil {
		return err
	}
	log.Printf("kvserve: worker runtime up (%d shard workers, ring cap %d)",
		s.sys.Cluster().NumShards(), s.queueCap)
	return nil
}

// close stops the server: it wakes every connection and drains them,
// then stops the sweeper (before the logs close: sweeps append expiry
// records), the workers (after the drain: no connection is producing
// anymore), the logs (after the workers: nothing appends; sync and
// close), the cluster runtime (last: peers may still be mid-call into
// the bus while draining), and writes the final trace dump. Idempotent.
func (s *server) close() {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.nudgeConns() // wake readers blocked on idle connections
		s.drain()
		s.stopSweeper()
		s.stopWorkers()
		s.closePersistence()
		s.closeCluster()
		s.finalTraceDump()
		if s.metrics != nil {
			s.metrics.Close()
		}
		if s.cfg.sock != "" {
			_ = os.Remove(s.cfg.sock)
		}
	})
}

func main() {
	s, err := newServer(parseFlags())
	if err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	ln, err := s.listen()
	if err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	if err := s.start(); err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("kvserve: %v — stopping accept, draining connections", sig)
		ln.Close()
	}()
	s.acceptLoop(ln)
	s.close()
	log.Printf("kvserve: shutdown complete")
}

// parseFlags fills a config from the command line. A value kvserve
// cannot serve with exits 2, as an unknown flag does, before anything
// is built or bound.
func parseFlags() config {
	var (
		mode   = flag.String("mode", "stlt", "baseline|stlt|slb|stlt-sw|stlt-va")
		index  = flag.String("index", "chainhash", "chainhash|densehash|rbtree|btree")
		keys   = flag.Int("keys", 100_000, "index/STLT sizing hint (and preload count with -preload)")
		shards = flag.Int("shards", 1, "number of simulated machines the key space is hashed across")
		pre    = flag.Bool("preload", false, "preload -keys YCSB records of 64 bytes before serving")
		sock   = flag.String("sock", "", "Unix socket path (the paper's transport)")
		addr   = flag.String("addr", "", "TCP address, e.g. 127.0.0.1:6380")
		maddr  = flag.String("metrics-addr", "", "HTTP address for /metrics, /cluster/metrics and /debug/pprof, e.g. 127.0.0.1:9090")

		idleTO   = flag.Duration("idle-timeout", 0, "disconnect clients silent for this long (0 = never)")
		maxConns = flag.Int("maxconns", 0, "max concurrent client connections; extras are shed with an error (0 = unlimited)")

		maxMem = flag.Int64("maxmemory", 0, "per-shard record-byte cap; past it SETs evict keys by the STLT's in-set LFU rule (0 = unlimited)")

		aof      = flag.Bool("aof", false, "enable the per-shard append-only log (durability)")
		aofDir   = flag.String("aof-dir", "aof", "directory for AOF segments and snapshots")
		aofFsync = flag.String("aof-fsync", "everysec", "fsync policy: always|everysec|no")

		clusterNodes = flag.String("cluster-nodes", "", "join a cluster: comma-separated clientAddr@busAddr per node, ordered by node index")
		clusterSelf  = flag.Int("cluster-self", 0, "this node's index into -cluster-nodes")
		hbEvery      = flag.Duration("heartbeat-interval", defaultHeartbeatEvery, "cluster heartbeat period H (0 = heartbeats off)")

		traceDir = flag.String("trace-dir", "", "directory for flight-recorder dump bundles (TRACE DUMP, anomaly auto-dumps, final dump on shutdown); TRACE ON [N] traces 1 in N single-key ops")
	)
	flag.Parse()
	cfg := config{
		engine: addrkv.Options{
			Keys:       *keys,
			Shards:     *shards,
			Index:      addrkv.IndexKind(*index),
			Mode:       addrkv.Mode(*mode),
			RedisLayer: true,
			MaxMemory:  *maxMem,
		},
		preload:     *pre,
		sock:        *sock,
		addr:        *addr,
		metricsAddr: *maddr,
		idleTimeout: *idleTO,
		maxConns:    *maxConns,
		aof:         *aof,
		aofDir:      *aofDir,
		aofFsync:    *aofFsync,
		self:        *clusterSelf,
		hbEvery:     *hbEvery,
		traceDir:    *traceDir,
	}
	var err error
	if *clusterNodes != "" {
		cfg.nodes, err = parseClusterNodes(*clusterNodes)
	}
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserve: %v\n", err)
		os.Exit(2)
	}
	return cfg
}

// validate rejects a configuration main cannot serve with.
func (c *config) validate() error {
	switch {
	case c.engine.Shards < 1:
		return errors.New("-shards must be >= 1")
	case (c.sock == "") == (c.addr == ""):
		return errors.New("exactly one of -sock or -addr is required")
	case len(c.nodes) == 0:
		return nil
	// Cluster nodes advertise TCP client addresses in the slot map, and
	// slot migration would bypass the AOF (migrated-away keys would
	// replay on restart) — keep the two features apart.
	case c.addr == "":
		return errors.New("cluster mode requires -addr (peers redirect clients to TCP addresses)")
	case c.aof:
		return errors.New("cluster mode does not compose with -aof yet")
	case c.self < 0 || c.self >= len(c.nodes):
		return fmt.Errorf("-cluster-self %d out of range (%d nodes)", c.self, len(c.nodes))
	}
	return nil
}

// acceptLoop accepts until the listener closes, shedding past the
// -maxconns ceiling and handing each tracked connection to its own
// serve goroutine.
func (s *server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("accept: %v", err)
			time.Sleep(50 * time.Millisecond) // don't spin on persistent errors
			continue
		}
		if !s.track(conn) {
			// Shed goroutines count toward the shutdown drain too: a
			// SIGTERM must not leak a pending shed write.
			s.wg.Add(1)
			go s.shed(conn)
			continue
		}
		go s.serve(conn)
	}
}

// track registers a connection, refusing (false) when the -maxconns
// ceiling is reached; the caller then sheds it gracefully.
func (s *server) track(conn net.Conn) bool {
	s.connMu.Lock()
	if s.cfg.maxConns > 0 && len(s.conns) >= s.cfg.maxConns {
		s.connMu.Unlock()
		return false
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	s.wg.Add(1)
	s.tele.activeConns.Add(1)
	return true
}

func (s *server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.tele.activeConns.Add(-1)
	s.wg.Done()
}

// shed refuses an over-limit connection the way Redis does: one error
// reply, then close. The client sees why instead of a silent RST.
// Callers add the goroutine to s.wg so shutdown waits for the reply.
func (s *server) shed(conn net.Conn) {
	defer s.wg.Done()
	s.tele.shedConns.Inc()
	s.tracer.NoteAnomaly("maxconns_shed")
	w := resp.NewWriterSize(conn, 64) // one short line: no full reply buffer per refused client
	_ = w.WriteError("ERR max number of clients reached")
	_ = w.Flush()
	_ = conn.Close()
}

// nudgeConns sets an immediate read deadline on every open connection
// so serve loops blocked in ReadCommand wake up and observe closing.
func (s *server) nudgeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	now := time.Now()
	for c := range s.conns {
		_ = c.SetReadDeadline(now)
	}
}

// drain waits for in-flight connections to finish their current
// command, force-closing stragglers after drainTimeout.
func (s *server) drain() {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		s.connMu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			_ = c.Close()
		}
		s.connMu.Unlock()
		log.Printf("kvserve: drain timeout, force-closed %d connection(s)", n)
		<-done
	}
}

// startExpiry starts active TTL expiry; it must run before
// startWorkers, whose workers read the drain-burst limit
// unsynchronised. Two sources sample up to sweepLimit armed deadlines
// per shard and reap the dead ones (Redis's activeExpireCycle): a
// ticker every period (start passes sweepInterval), so a shard with no
// traffic still reaps, and every worker drain burst on its own shard,
// so a busy shard reaps at traffic speed. SweepExpired takes each
// shard's own mutex, so the ticker needs no coordination with the
// workers.
func (s *server) startExpiry(every time.Duration) {
	s.sys.Cluster().SetSweepLimit(sweepLimit)
	s.sweepStop = make(chan struct{})
	s.sweepDone = make(chan struct{})
	go func() {
		defer close(s.sweepDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n := s.sys.SweepExpired(sweepLimit)
				s.sweepCycles.Add(1)
				s.sweepReaped.Add(uint64(n))
				s.sweepLastReaped.Store(uint64(n))
			case <-s.sweepStop:
				return
			}
		}
	}()
}

// stopSweeper stops the active-expiry loop and waits for an in-flight
// sweep to finish (it may be appending to the AOF).
func (s *server) stopSweeper() {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
	}
}

// serve runs one connection's pipelined loop: block for the first
// command, drain every further command the client already sent (up to
// the pipeline cap), dispatch them all, and flush the replies in one
// write. A whole N-deep pipeline therefore costs one read burst and
// one flush instead of N of each — the per-request amortization the
// batching literature (LaKe, the SmartNIC KV offloads) attributes
// most of its networking win to. The reply buffer (resp.IOBufLen)
// bounds reply memory: once full it writes itself out early instead
// of holding an entire deep pipeline of bulk values.
func (s *server) serve(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	cs := &connState{id: s.connSeq.Add(1)}
	// Annotate the connection as a runtime/trace task (and each
	// pipeline drain as a region below) so `go tool trace` on a pprof
	// capture shows per-connection lanes with one slice per batch.
	ctx, task := rtrace.NewTask(context.Background(), "kvserve.conn")
	defer task.End()
	src := io.Reader(conn)
	if s.cfg.idleTimeout > 0 {
		// Re-arm the read deadline before every read, not once per
		// burst: "idle" means no BYTES for the timeout, so a client
		// trickling a large pipelined burst slower than the timeout is
		// never reaped mid-burst (see TestIdleTimeoutMidBurst).
		src = &idleConn{conn: conn, s: s}
	}
	r := resp.NewReader(src)
	w := resp.NewWriter(conn)
	w.OnSpill(s.tele.earlyFlush.Inc) // the buffer filled before the burst's own flush
	for {
		// The arena-reuse read path: everything cmds references is valid
		// until the next ReadPipelineReuse call, i.e. across this whole
		// burst (including the pending-window flush below).
		cmds, rerr := r.ReadPipelineReuse(maxPipeline)
		reg := rtrace.StartRegion(ctx, "pipeline.batch")
		quit, monitor, werr := s.runBurstCmds(w, cs, cmds)
		reg.End()
		if werr != nil {
			return
		}
		if monitor && !quit && !s.closing.Load() {
			s.monitorLoop(r, w) // it flushes the +OK
			return
		}
		if err := w.Flush(); err != nil || quit || s.closing.Load() {
			return
		}
		if rerr != nil {
			if !errors.Is(rerr, io.EOF) && !isTimeout(rerr) {
				log.Printf("client error: %v", rerr)
			}
			return
		}
	}
}

// runBurstCmds runs one parsed pipeline burst. Single-key commands
// join the pending window on their way to their shards; anything else
// is an ordering barrier that flushes the window first. quit/monitor
// report the command that requested them (later commands in the burst
// are dropped). On return the window is flushed; the caller owns the
// writer's Flush.
func (s *server) runBurstCmds(w *resp.Writer, cs *connState, cmds [][][]byte) (quit, monitor bool, werr error) {
	if len(cmds) > 0 {
		s.tele.pipeBatches.Inc()
		s.tele.pipeCmds.Add(uint64(len(cmds)))
		s.tele.pipeDepth.Observe(uint64(len(cmds)))
	}
	for _, args := range cmds {
		c := lookupCommand(args[0])
		if c != nil && c.rides(len(args)) {
			s.enqueue(cs, c, args)
			continue
		}
		if werr = s.flushPending(w, cs); werr != nil {
			return
		}
		if quit, monitor = s.dispatch(w, c, args, cs); quit || monitor {
			return
		}
	}
	return false, false, s.flushPending(w, cs)
}

// idleConn arms the -idle-timeout read deadline before every
// underlying read. During shutdown the immediate deadline nudgeConns
// set must win, so the re-arm is undone when closing is observed (the
// check runs AFTER the re-arm: either this read sees the immediate
// deadline, or nudgeConns runs later and sets it itself).
type idleConn struct {
	conn net.Conn
	s    *server
}

func (ic *idleConn) Read(p []byte) (int, error) {
	_ = ic.conn.SetReadDeadline(time.Now().Add(ic.s.cfg.idleTimeout))
	if ic.s.closing.Load() {
		_ = ic.conn.SetReadDeadline(time.Now())
	}
	return ic.conn.Read(p)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// connState is the per-connection dispatch state: the connection's
// identity for span attribution plus its local trace-sampling counter.
// Each connection's serve loop is one goroutine, so the counter needs
// no synchronization — sampling 1-in-N per connection instead of
// globally keeps the untraced fast path free of shared-cache-line
// writes at high op rates.
type connState struct {
	id  int64
	ops uint64

	// asking is the one-shot ASKING flag (cluster mode): the next
	// command may bypass the op gate if its slot is importing here.
	asking bool

	// The single-key route's state: a slab of reusable request slots
	// (pointer slice — addresses stay stable while it grows, and each
	// slot's Val buffer stays warm) and the pending window of enqueued
	// commands awaiting completion, both reset by flushPending.
	reqs []*shard.Req
	used int
	pend []pending

	// outs holds the engine-op outcomes of the barrier command being
	// dispatched, kept here so the slice is reused.
	outs []addrkv.OpOutcome
}

// monitorLoop streams the command feed to a MONITOR client until the
// client sends another command (QUIT/RESET per Redis, but any input
// detaches), disconnects, or the server drains. Lines a slow client
// cannot absorb are dropped by the feed, never blocking dispatch. It
// subscribes before the +OK leaves: a client that read it is watched.
func (s *server) monitorLoop(r *resp.Reader, w *resp.Writer) {
	id, ch := s.tele.feed.Subscribe(1024)
	defer s.tele.feed.Unsubscribe(id)
	if w.Flush() != nil {
		return
	}
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for {
			if _, err := r.ReadCommand(); err != nil {
				return // disconnect, or nudgeConns during shutdown
			}
			return // any command detaches the monitor
		}
	}()
	for {
		select {
		case line := <-ch:
			if w.WriteSimple(line) != nil || w.Flush() != nil {
				return
			}
		case <-stop:
			return
		}
	}
}

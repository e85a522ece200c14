// Event-loop networking front-end (-netloop): N reader shards
// multiplex every client connection instead of dedicating a goroutine
// per connection. Each shard owns a poller (epoll on linux, a
// portable per-connection-reader fallback elsewhere or via
// -netloop-poller), drains readable sockets into per-connection
// resp.Streams, and dispatches parsed bursts through the SAME
// runBurstCmds / flushPending machinery the goroutine path uses — so
// replies and modeled statistics are bit-for-bit identical by
// construction, pinned by the differentials in netloop_test.go.
//
// The win LaKe attributes to a multiplexed ingress is preserved here
// as cross-connection batching: one wakeup processes every readable
// connection in two phases — phase 1 parses and enqueues each
// connection's burst onto the per-shard worker rings, phase 2 awaits
// and flushes replies — so a single worker drain covers async ops
// from MANY connections, where the goroutine path only batches within
// one connection's pipeline.
//
// Semantics carried over from the goroutine path:
//   - -pipeline bounds commands per burst; a connection whose burst
//     hit the cap is re-processed in the same wakeup (no new reads)
//     until its buffer holds no complete command.
//   - -writebuf sizes the reply buffer (newReplyWriter, shared code).
//   - -maxconns sheds at accept, before a shard is ever chosen.
//   - -idle-timeout means "no bytes arrived for the timeout": epoll
//     shards reap by last-read stamp, the portable poller by per-read
//     deadlines — both match the blocking path's idleConn semantics,
//     so a trickling mid-burst client is never reaped.
//   - MONITOR and malformed input detach/close exactly like serve().
//
// A write to a stalled peer cannot wedge a whole shard: every
// connection gets a generous write deadline per wakeup and is dropped
// as a write stall when it expires (EPOLLOUT-driven spill buffers are
// future work; the deadline bounds the damage until then).
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
)

const (
	// loopReadSize is the read segment requested from the stream per
	// socket read: the goroutine front-end's read buffer size, so both
	// front-ends cut a client's pipeline into the same bursts.
	loopReadSize = resp.IOBufLen
	// loopReadCap bounds bytes drained from one connection per wakeup
	// (fairness across the shard's connections; level-triggered epoll
	// re-arms for the rest).
	loopReadCap = 256 << 10
	// loopWriteTimeout is the per-wakeup write deadline: a peer that
	// cannot absorb its replies for this long is dropped instead of
	// wedging the shard.
	loopWriteTimeout = 60 * time.Second
	// loopRegBacklog is the registration channel depth per shard.
	loopRegBacklog = 256
	// loopEventBacklog is the portable poller's event channel depth.
	loopEventBacklog = 1024
)

// loopState is the front-end: the reader shards and their assignment
// counter.
type loopState struct {
	s      *server
	shards []*readerShard
	poller string // "epoll" or "portable"
	next   atomic.Uint64
	wg     sync.WaitGroup
}

// loopConn is one multiplexed connection's state.
type loopConn struct {
	conn net.Conn
	sh   *readerShard
	st   *resp.Stream
	w    *resp.Writer
	cs   *connState

	// epoll-path state: the raw fd, the control handle, and the stored
	// read callback (allocated once, not per read).
	fd      int32
	rc      syscall.RawConn
	readFn  func(uintptr) bool
	readN   int
	readErr error

	lastActive time.Time // epoll idle reap stamp (last byte arrival)

	// Portable-path state: the reader goroutine's resume signal and
	// exit flag (also set on close, so a woken reader exits).
	procDone      chan struct{}
	detached      atomic.Bool
	readerWaiting bool

	// Per-wakeup dispatch outcome, reset each round.
	rerr   error // read/parse error: close once buffered commands drain
	werr   error // write error: close without a final flush
	quit   bool
	mon    bool
	full   bool // burst hit -pipeline: more commands may be buffered
	closed bool
}

// readerShard is one event loop: a set of connections, their poller,
// and the wakeup-processing scratch state.
type readerShard struct {
	s    *server
	loop *loopState
	id   int

	regCh  chan *loopConn
	stopCh chan struct{}

	// epoll-path state (populated by epollInit on linux).
	ep       epollState
	epConns  map[int32]*loopConn
	lastReap time.Time

	// Portable-path state.
	eventCh chan loopEvent
	wakeCh  chan struct{}
	pConns  map[*loopConn]struct{}

	// Wakeup scratch, reused across wakeups: the conns with fresh
	// bytes this wakeup, and the two round buffers of the burst
	// machine.
	batch  []*loopConn
	ready  []*loopConn
	readyB []*loopConn

	// Telemetry, read cross-thread by INFO and /metrics.
	nconns       atomic.Int64
	wakeups      atomic.Uint64
	connEvents   atomic.Uint64
	bytesRead    atomic.Uint64
	rounds       atomic.Uint64
	idleReaped   atomic.Uint64
	writeStalls  atomic.Uint64
	blockedWaits atomic.Uint64
}

// loopEvent is the portable poller's handoff: a connection whose
// reader goroutine filled its stream (or hit err).
type loopEvent struct {
	lc  *loopConn
	err error
}

// startNetloop brings the reader shards up. pollerChoice is
// auto|epoll|portable; auto prefers epoll where the platform has it
// AND at least two Ps are available. The raw epoll shard blocks its
// OS thread outside the runtime's knowledge, so a spare P must be
// free to keep the runtime netpoller (client/worker wakeups) running;
// at GOMAXPROCS=1 that P is held hostage in the syscall until sysmon
// retakes it, turning every quiet-socket wakeup into 100µs+ of
// scheduler-monitor latency. The portable poller parks in
// runtime-native reads, so below two Ps it is strictly better.
func (s *server) startNetloop(readers int, pollerChoice string) error {
	if readers <= 0 {
		readers = runtime.GOMAXPROCS(0) / 2
		if readers < 1 {
			readers = 1
		}
		if readers > 8 {
			readers = 8
		}
	}
	poller := pollerChoice
	if poller == "" || poller == "auto" {
		poller = "portable"
		if epollSupported && runtime.GOMAXPROCS(0) > 1 {
			poller = "epoll"
		}
	}
	switch poller {
	case "portable":
	case "epoll":
		if !epollSupported {
			return fmt.Errorf("netloop: epoll poller unavailable on %s (use -netloop-poller portable)", runtime.GOOS)
		}
	default:
		return fmt.Errorf("netloop: unknown poller %q (auto|epoll|portable)", pollerChoice)
	}
	ls := &loopState{s: s, poller: poller}
	for i := 0; i < readers; i++ {
		sh := &readerShard{
			s:      s,
			loop:   ls,
			id:     i,
			regCh:  make(chan *loopConn, loopRegBacklog),
			stopCh: make(chan struct{}),
		}
		if poller == "epoll" {
			sh.epConns = map[int32]*loopConn{}
			if err := sh.epollInit(); err != nil {
				for _, prev := range ls.shards {
					prev.epollClose()
				}
				return fmt.Errorf("netloop: %w", err)
			}
		} else {
			sh.eventCh = make(chan loopEvent, loopEventBacklog)
			sh.wakeCh = make(chan struct{}, 1)
			sh.pConns = map[*loopConn]struct{}{}
		}
		ls.shards = append(ls.shards, sh)
	}
	for _, sh := range ls.shards {
		ls.wg.Add(1)
		if poller == "epoll" {
			go sh.runEpoll()
		} else {
			go sh.runPortable()
		}
	}
	s.loop = ls
	s.tele.registerNetloopMetrics(s)
	return nil
}

// wakeNetloop kicks every shard so loops blocked in their poller
// observe s.closing (the signal handler calls it next to nudgeConns).
func (s *server) wakeNetloop() {
	if s.loop == nil {
		return
	}
	for _, sh := range s.loop.shards {
		sh.wake()
	}
}

// stopNetloop joins the shard loops (and the portable poller's reader
// goroutines); callers have already drained the connections.
func (s *server) stopNetloop() {
	if s.loop == nil {
		return
	}
	for _, sh := range s.loop.shards {
		close(sh.stopCh)
		sh.wake()
	}
	s.loop.wg.Wait()
	if s.loop.poller == "epoll" {
		for _, sh := range s.loop.shards {
			sh.epollClose()
		}
	}
}

// wake kicks one shard's poller.
func (sh *readerShard) wake() {
	if sh.wakeCh != nil {
		select {
		case sh.wakeCh <- struct{}{}:
		default:
		}
		return
	}
	sh.epollWake()
}

// add assigns a freshly accepted (and tracked) connection to a reader
// shard round-robin and hands it over.
func (ls *loopState) add(conn net.Conn) {
	sh := ls.shards[ls.next.Add(1)%uint64(len(ls.shards))]
	lc := &loopConn{
		conn: conn,
		sh:   sh,
		st:   resp.NewStream(),
		w:    ls.s.newReplyWriter(conn),
		cs:   &connState{id: ls.s.connSeq.Add(1), netloop: true, reader: sh.id},
	}
	if ls.poller == "portable" {
		lc.procDone = make(chan struct{}, 1)
	}
	sh.regCh <- lc
	sh.wake()
}

// ---------------------------------------------------------------------
// Shared burst machine (both pollers).

// processReady runs the two-phase burst machine over sh.batch: every
// round, phase 1 parses one burst per connection and dispatches it
// (worker mode enqueues async ops from ALL connections before anyone
// waits — the cross-connection batching), then phase 2 awaits pending
// replies and flushes each connection once. Connections whose burst
// hit the -pipeline cap re-enter the next round (their buffer may
// hold more complete commands; no new reads happen between rounds, so
// rounds are bounded by buffered bytes).
func (sh *readerShard) processReady() {
	s := sh.s
	sh.ready = append(sh.ready[:0], sh.batch...)
	round := sh.ready
	spare := sh.readyB
	for len(round) > 0 {
		sh.rounds.Add(1)
		for _, lc := range round {
			lc.quit, lc.mon, lc.full, lc.werr = false, false, false, nil
			cmds, perr := lc.st.NextBurst(s.net.maxPipeline)
			if perr != nil && lc.rerr == nil {
				lc.rerr = perr
			}
			lc.full = perr == nil && len(cmds) == s.net.maxPipeline
			lc.quit, lc.mon, lc.werr = s.runBurstCmds(lc.w, lc.cs, cmds)
		}
		next := spare[:0]
		for _, lc := range round {
			if sh.finishBurst(lc) && lc.full {
				next = append(next, lc)
			}
		}
		spare = round
		round = next
	}
	sh.readyB = spare
}

// finishBurst is phase 2 for one connection: await pending worker
// replies, flush, and act on quit/monitor/errors. It reports whether
// the connection is still attached to the loop.
func (sh *readerShard) finishBurst(lc *loopConn) bool {
	s := sh.s
	if s.workers && lc.werr == nil {
		lc.werr = s.flushPending(lc.w, lc.cs)
	}
	if lc.werr != nil {
		// Same as serve(): a write error closes without a final flush.
		if isTimeout(lc.werr) {
			sh.writeStalls.Add(1)
		}
		sh.closeConn(lc)
		return false
	}
	if err := lc.w.Flush(); err != nil || lc.quit || s.closing.Load() {
		if err != nil && isTimeout(err) {
			sh.writeStalls.Add(1)
		}
		sh.closeConn(lc)
		return false
	}
	if lc.mon {
		sh.detachMonitor(lc)
		return false
	}
	if lc.rerr != nil && !lc.full {
		// Every buffered complete command has been answered (the
		// blocking path behaves the same way: a read error surfaces
		// only once the buffer runs dry). The partial tail can never
		// complete — close.
		if !errors.Is(lc.rerr, io.EOF) && !isTimeout(lc.rerr) && !errors.Is(lc.rerr, net.ErrClosed) {
			log.Printf("client error: %v", lc.rerr)
		}
		sh.closeConn(lc)
		return false
	}
	return true
}

// closeConn detaches a connection from the shard and closes it. Safe
// to call twice (shutdown paths overlap).
func (sh *readerShard) closeConn(lc *loopConn) {
	if lc.closed {
		return
	}
	lc.closed = true
	lc.detached.Store(true) // portable reader goroutine: exit on wake
	if sh.epConns != nil {
		sh.epollDel(lc)
		delete(sh.epConns, lc.fd)
	} else {
		delete(sh.pConns, lc)
	}
	sh.nconns.Add(-1)
	_ = lc.conn.Close()
	sh.s.untrack(lc.conn)
}

// detachMonitor hands a connection that issued MONITOR to a dedicated
// goroutine running the same monitorLoop as the blocking path: the
// loop stops polling the socket, and the unparsed stream tail is
// replayed ahead of the live connection so a pipelined
// "MONITOR\r\nQUIT\r\n" still detaches immediately.
func (sh *readerShard) detachMonitor(lc *loopConn) {
	lc.detached.Store(true)
	if sh.epConns != nil {
		sh.epollDel(lc)
		delete(sh.epConns, lc.fd)
	} else {
		delete(sh.pConns, lc)
	}
	sh.nconns.Add(-1)
	s := sh.s
	leftover := lc.st.TakeLeftover()
	go func() {
		var src io.Reader = lc.conn
		if s.net.idleTimeout > 0 {
			src = &idleConn{conn: lc.conn, s: s}
		}
		if len(leftover) > 0 {
			src = io.MultiReader(bytes.NewReader(leftover), src)
		}
		s.monitorLoop(resp.NewReader(src), lc.w)
		_ = lc.conn.Close()
		s.untrack(lc.conn)
	}()
}

// ---------------------------------------------------------------------
// Portable poller: one blocking-reader goroutine per connection hands
// filled streams to the shard loop over a channel. Keeps goroutine-
// per-connection reads but centralizes dispatch, so cross-connection
// batching and the shared burst machine still apply; epoll-less
// platforms and the -netloop-poller portable test leg use it.

func (sh *readerShard) runPortable() {
	defer sh.loop.wg.Done()
	for {
		sh.batch = sh.batch[:0]
		select {
		case lc := <-sh.regCh:
			sh.portableAdd(lc)
		case ev := <-sh.eventCh:
			sh.collect(ev)
		case <-sh.wakeCh:
		case <-sh.stopCh:
			sh.closeAllPortable()
			return
		}
		// Greedy drain: everything that arrived while we slept joins
		// this wakeup's batch (the cross-connection window).
		for drained := false; !drained; {
			select {
			case lc := <-sh.regCh:
				sh.portableAdd(lc)
			case ev := <-sh.eventCh:
				sh.collect(ev)
			default:
				drained = true
			}
		}
		if sh.s.closing.Load() {
			sh.closeAllPortable()
			return
		}
		if len(sh.batch) == 0 {
			continue
		}
		sh.wakeups.Add(1)
		sh.connEvents.Add(uint64(len(sh.batch)))
		for _, lc := range sh.batch {
			_ = lc.conn.SetWriteDeadline(time.Now().Add(loopWriteTimeout))
		}
		sh.processReady()
		for _, lc := range sh.batch {
			if lc.readerWaiting {
				lc.readerWaiting = false
				lc.procDone <- struct{}{} // cap 1, reader is parked on it
			}
		}
	}
}

func (sh *readerShard) portableAdd(lc *loopConn) {
	sh.pConns[lc] = struct{}{}
	sh.nconns.Add(1)
	sh.loop.wg.Add(1)
	go sh.portableReader(lc)
}

func (sh *readerShard) collect(ev loopEvent) {
	lc := ev.lc
	if lc.closed {
		return
	}
	lc.readerWaiting = ev.err == nil
	if ev.err != nil && lc.rerr == nil {
		lc.rerr = ev.err
		if isTimeout(ev.err) {
			sh.idleReaped.Add(1)
		}
	}
	sh.batch = append(sh.batch, lc)
}

// portableReader is the per-connection fill goroutine: read into the
// stream, hand the connection to the loop, park until the loop is
// done with the stream, repeat. Stream accesses are ordered by the
// event/procDone channel pair, so loop and reader never touch it
// concurrently.
func (sh *readerShard) portableReader(lc *loopConn) {
	defer sh.loop.wg.Done()
	s := sh.s
	for {
		if lc.detached.Load() {
			return
		}
		dst := lc.st.Writable(loopReadSize)
		if s.net.idleTimeout > 0 {
			_ = lc.conn.SetReadDeadline(time.Now().Add(s.net.idleTimeout))
			if s.closing.Load() {
				_ = lc.conn.SetReadDeadline(time.Now())
			}
		}
		n, err := lc.conn.Read(dst)
		if n > 0 {
			lc.st.Advance(n)
			sh.bytesRead.Add(uint64(n))
		}
		select {
		case sh.eventCh <- loopEvent{lc: lc, err: err}:
		case <-sh.stopCh:
			return
		}
		if err != nil {
			return
		}
		select {
		case <-lc.procDone:
		case <-sh.stopCh:
			return
		}
	}
}

func (sh *readerShard) closeAllPortable() {
	for lc := range sh.pConns {
		sh.closeConn(lc)
	}
}

// ---------------------------------------------------------------------
// INFO and /metrics surfacing.

// netloopInfo appends the event-loop lines to INFO's "# networking"
// section.
func (s *server) netloopInfo(add func(format string, args ...any)) {
	if s.loop == nil {
		add("netloop:off\r\n")
		return
	}
	add("netloop:on\r\n")
	add("netloop_readers:%d\r\n", len(s.loop.shards))
	add("netloop_poller:%s\r\n", s.loop.poller)
	var conns int64
	var wakeups, events, bytesRead, rounds, idle, stalls, blocked uint64
	for _, sh := range s.loop.shards {
		conns += sh.nconns.Load()
		wakeups += sh.wakeups.Load()
		events += sh.connEvents.Load()
		bytesRead += sh.bytesRead.Load()
		rounds += sh.rounds.Load()
		idle += sh.idleReaped.Load()
		stalls += sh.writeStalls.Load()
		blocked += sh.blockedWaits.Load()
	}
	add("netloop_conns:%d\r\n", conns)
	add("loop_wakeups:%d\r\n", wakeups)
	add("loop_conn_events:%d\r\n", events)
	add("loop_bytes_read:%d\r\n", bytesRead)
	add("loop_rounds:%d\r\n", rounds)
	add("loop_idle_reaped:%d\r\n", idle)
	add("loop_write_stalls:%d\r\n", stalls)
	add("loop_blocked_waits:%d\r\n", blocked)
}

// registerNetloopMetrics exposes per-reader-shard loop counters on
// /metrics (called once from startNetloop).
func (t *serverTele) registerNetloopMetrics(s *server) {
	for _, sh := range s.loop.shards {
		sh := sh
		lbl := telemetry.Labels{"reader": strconv.Itoa(sh.id)}
		t.reg.GaugeFunc("addrkv_netloop_conns", "Connections owned by the reader shard.", lbl,
			func() float64 { return float64(sh.nconns.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_wakeups_total", "Poller wakeups processed by the reader shard.", lbl,
			func() float64 { return float64(sh.wakeups.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_conn_events_total", "Readable-connection events processed.", lbl,
			func() float64 { return float64(sh.connEvents.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_bytes_read_total", "Bytes drained from sockets by the reader shard.", lbl,
			func() float64 { return float64(sh.bytesRead.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_rounds_total", "Burst-machine rounds run (>= wakeups; extra rounds drain deep pipelines).", lbl,
			func() float64 { return float64(sh.rounds.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_idle_reaped_total", "Connections reaped by the idle timeout.", lbl,
			func() float64 { return float64(sh.idleReaped.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_write_stalls_total", "Connections dropped on an expired write deadline.", lbl,
			func() float64 { return float64(sh.writeStalls.Load()) })
		t.reg.GaugeFunc("addrkv_netloop_blocked_waits_total", "Epoll waits that exhausted the spin budget and blocked the OS thread.", lbl,
			func() float64 { return float64(sh.blockedWaits.Load()) })
	}
}

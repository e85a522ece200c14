// The node-to-node bus: length-prefixed CRC'd frames over TCP, one
// request one reply, served by a per-connection goroutine. The bus
// carries control traffic only (slot maps, migration streams) — the
// client data path never crosses it, so a thin codec with blocking
// calls is the right amount of machinery.
package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler answers one bus request with one reply message. It runs on
// the serving connection's goroutine; returning a MsgErr reply is the
// way to refuse a request.
type Handler func(m Msg) (MsgType, []byte)

// BusServer accepts peer connections and serves requests.
type BusServer struct {
	ln     net.Listener
	h      Handler
	closed atomic.Bool
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	served atomic.Uint64
	errs   atomic.Uint64
}

// ServeBus starts serving bus requests on ln.
func ServeBus(ln net.Listener, h Handler) *BusServer {
	b := &BusServer{ln: ln, h: h, conns: make(map[net.Conn]struct{})}
	b.wg.Add(1)
	go b.acceptLoop()
	return b
}

// track registers a live connection, refusing it mid-shutdown.
func (b *BusServer) track(conn net.Conn) bool {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.closed.Load() {
		return false
	}
	b.conns[conn] = struct{}{}
	return true
}

func (b *BusServer) untrack(conn net.Conn) {
	b.connMu.Lock()
	delete(b.conns, conn)
	b.connMu.Unlock()
}

// Addr returns the bus listen address.
func (b *BusServer) Addr() string { return b.ln.Addr().String() }

// Served returns how many requests the bus has answered.
func (b *BusServer) Served() uint64 { return b.served.Load() }

func (b *BusServer) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			if b.closed.Load() {
				return
			}
			b.errs.Add(1)
			// Persistent Accept errors (EMFILE and friends) would
			// otherwise busy-spin a core; back off briefly.
			time.Sleep(acceptBackoff)
			continue
		}
		b.wg.Add(1)
		go b.serveConn(conn)
	}
}

// acceptBackoff spaces retries after an Accept error.
const acceptBackoff = 10 * time.Millisecond

func (b *BusServer) serveConn(conn net.Conn) {
	defer b.wg.Done()
	defer conn.Close()
	if !b.track(conn) {
		return
	}
	defer b.untrack(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	for {
		var m Msg
		var err error
		m, buf, err = ReadMsg(br, buf)
		if err != nil {
			return
		}
		t, body := b.h(m)
		b.served.Add(1)
		// Bound the reply write: a peer that stops draining must not
		// pin this goroutine (reads may block indefinitely — an idle
		// peer connection is normal).
		conn.SetWriteDeadline(time.Now().Add(CallTimeout)) //nolint:errcheck
		if err := WriteMsg(bw, t, body); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops accepting, closes live peer connections (unblocking
// their read loops) and waits for the serving goroutines to drain.
func (b *BusServer) Close() {
	b.closed.Store(true)
	b.ln.Close()
	b.connMu.Lock()
	for conn := range b.conns {
		conn.Close()
	}
	b.connMu.Unlock()
	b.wg.Wait()
}

// Peer is a client handle to one remote node's bus: a persistent
// connection issuing blocking request/reply calls, serialized by a
// mutex (the bus is control-plane; one in-flight call per peer is
// plenty). A broken connection is redialed once per call.
type Peer struct {
	addr string

	// Timeout bounds one call's write+read round trip (0 means
	// CallTimeout). Set before the first Call; not synchronized.
	Timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// DialTimeout bounds one bus connect attempt.
const DialTimeout = 2 * time.Second

// CallTimeout bounds one bus call's write+read round trip. Batches
// ship while a shard lock is held (see internal/shard.ExtractBatch),
// so a hung or black-holed peer must surface as a call error — which
// aborts or retries the migration — rather than wedging the shard's
// client traffic indefinitely.
const CallTimeout = 10 * time.Second

// NewPeer returns a lazy handle; the connection is established on
// first Call.
func NewPeer(addr string) *Peer { return &Peer{addr: addr} }

func (p *Peer) connect() error {
	conn, err := net.DialTimeout("tcp", p.addr, DialTimeout)
	if err != nil {
		return err
	}
	p.conn = conn
	p.br = bufio.NewReaderSize(conn, 64<<10)
	return nil
}

// Call sends one request and reads its reply. A MsgErr reply is
// surfaced as an error. On a transport failure the connection is
// dropped and the call retried once on a fresh dial — safe because
// every bus request is idempotent (map exchange; batch install is an
// upsert; commit adoption is version-gated).
func (p *Peer) Call(t MsgType, body []byte) (Msg, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.callRetry(t, body)
}

// CallCopy is Call with the reply payload copied into a fresh slice
// while the peer's lock is still held. A plain Call's payload aliases
// the peer's reused read buffer, so on a peer shared between
// goroutines (the heartbeat loop and digest collection) the caller
// cannot copy it safely after Call returns — the next Call may already
// be overwriting the buffer.
func (p *Peer) CallCopy(t MsgType, body []byte) (Msg, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, err := p.callRetry(t, body)
	if err == nil && len(m.Payload) > 0 {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	return m, err
}

func (p *Peer) callRetry(t MsgType, body []byte) (Msg, error) {
	for attempt := 0; ; attempt++ {
		if p.conn == nil {
			if err := p.connect(); err != nil {
				return Msg{}, fmt.Errorf("cluster: dial %s: %w", p.addr, err)
			}
		}
		m, err := p.call(t, body)
		if err == nil {
			if m.Type == MsgErr {
				return Msg{}, fmt.Errorf("cluster: peer %s: %s", p.addr, m.Payload)
			}
			return m, nil
		}
		p.conn.Close()
		p.conn = nil
		if attempt == 1 {
			return Msg{}, fmt.Errorf("cluster: call %s: %w", p.addr, err)
		}
	}
}

func (p *Peer) call(t MsgType, body []byte) (Msg, error) {
	to := p.Timeout
	if to <= 0 {
		to = CallTimeout
	}
	if err := p.conn.SetDeadline(time.Now().Add(to)); err != nil {
		return Msg{}, err
	}
	if err := WriteMsg(p.conn, t, body); err != nil {
		return Msg{}, err
	}
	var m Msg
	var err error
	m, p.buf, err = ReadMsg(p.br, p.buf)
	return m, err
}

// Close drops the connection.
func (p *Peer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

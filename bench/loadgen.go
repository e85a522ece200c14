package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"addrkv/internal/ycsb"
)

// reply is one decoded server reply. body aliases the client's scratch
// buffer and is valid until the next read.
type reply struct {
	kind byte // '+', '-', ':' or '$'
	null bool // "$-1": null bulk
	body []byte
}

// verify checks a reply against the model: "+OK" for a SET, the exact
// value bytes (or a null bulk for a key that cannot exist) for a GET.
// An error reply, a short value, a stale version or another key's value
// all fail here.
func verify(o op, r reply) error {
	if r.kind == '-' {
		return fmt.Errorf("key %d: error reply %q", o.id, r.body)
	}
	switch {
	case o.set:
		if r.kind != '+' || string(r.body) != "OK" {
			return fmt.Errorf("SET key %d: reply %c%q, want +OK", o.id, r.kind, r.body)
		}
	case o.absent:
		if r.kind != '$' || !r.null {
			return fmt.Errorf("GET key %d: reply %c (%d bytes), want null", o.id, r.kind, len(r.body))
		}
	default:
		if r.kind != '$' || r.null {
			return fmt.Errorf("GET key %d: reply %c null=%v, want %d-byte value", o.id, r.kind, r.null, o.size)
		}
		if want := o.value(); !bytes.Equal(r.body, want) {
			return fmt.Errorf("GET key %d version %d: %d-byte value differs from the model's %d bytes",
				o.id, o.ver, len(r.body), len(want))
		}
	}
	return nil
}

// client is one closed-loop connection: it writes a burst of depth
// commands, then reads and verifies depth replies before the next burst.
type client struct {
	nc   net.Conn
	br   *bufio.Reader
	gen  *opGen
	wbuf []byte
	body []byte
	ops  []op

	attempted, failed int64
	errs              []string
}

func newClient(nc net.Conn, gen *opGen) *client {
	return &client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), gen: gen}
}

// appendCommand encodes o as a RESP command array.
func appendCommand(buf []byte, o op) []byte {
	var kb [ycsb.KeyLen]byte
	key := ycsb.KeyNameInto(kb[:], o.id)
	if !o.set {
		buf = append(buf, "*2\r\n$3\r\nGET\r\n$24\r\n"...)
		buf = append(buf, key...)
		return append(buf, '\r', '\n')
	}
	buf = append(buf, "*3\r\n$3\r\nSET\r\n$24\r\n"...)
	buf = append(buf, key...)
	buf = append(buf, "\r\n$"...)
	buf = strconv.AppendInt(buf, int64(o.size), 10)
	buf = append(buf, '\r', '\n')
	buf = append(buf, o.value()...)
	return append(buf, '\r', '\n')
}

// readReply decodes one reply without allocating in the steady state.
func readReply(br *bufio.Reader, scratch *[]byte) (reply, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, fmt.Errorf("malformed reply line %q", line)
	}
	r := reply{kind: line[0]}
	rest := line[1 : len(line)-2]
	switch r.kind {
	case '+', '-', ':':
		*scratch = append((*scratch)[:0], rest...)
		r.body = *scratch
		return r, nil
	case '$':
		n, err := strconv.Atoi(string(rest))
		if err != nil || n < -1 || n > 64<<20 {
			return reply{}, fmt.Errorf("bad bulk length %q", rest)
		}
		if n == -1 {
			r.null = true
			return r, nil
		}
		if cap(*scratch) < n+2 {
			*scratch = make([]byte, n+2)
		}
		buf := (*scratch)[:n+2]
		if _, err := io.ReadFull(br, buf); err != nil {
			return reply{}, fmt.Errorf("bulk of %d bytes cut short: %w", n, err)
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return reply{}, errors.New("bulk not CRLF terminated")
		}
		r.body = buf[:n]
		return r, nil
	}
	return reply{}, fmt.Errorf("unexpected reply type %q", r.kind)
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// burst sends ops and verifies their replies. lat, when non-nil,
// receives one sample per verified op: nanoseconds from the write of the
// burst to the op's verified reply. A transport error fails every op
// still outstanding and is returned.
func (c *client) burst(ops []op, lat *[]int64) error {
	c.wbuf = c.wbuf[:0]
	for _, o := range ops {
		c.wbuf = appendCommand(c.wbuf, o)
	}
	c.attempted += int64(len(ops))
	t0 := time.Now()
	if _, err := c.nc.Write(c.wbuf); err != nil {
		for range ops {
			c.fail(err)
		}
		return err
	}
	for i, o := range ops {
		r, err := readReply(c.br, &c.body)
		if err != nil {
			for range ops[i:] {
				c.fail(err)
			}
			return err
		}
		if err := verify(o, r); err != nil {
			c.fail(err)
			continue
		}
		if lat != nil {
			*lat = append(*lat, int64(time.Since(t0)))
		}
	}
	return nil
}

// fill generates the next n ops of the connection's stream.
func (c *client) fill(n int) []op {
	c.ops = c.ops[:0]
	for i := 0; i < n; i++ {
		c.ops = append(c.ops, c.gen.next())
	}
	return c.ops
}

// loadgen is the closed-loop load generator: conns clients in one
// process, each a goroutine with its own connection and model.
type loadgen struct {
	w       workload
	clients []*client
}

func dialLoadgen(w workload, seed uint64, sock string) (*loadgen, error) {
	lg := &loadgen{w: w}
	for i := 0; i < w.conns; i++ {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			lg.close()
			return nil, err
		}
		lg.clients = append(lg.clients, newClient(nc, newOpGen(w, seed, i)))
	}
	return lg, nil
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.nc.Close()
	}
}

// each runs fn on every client concurrently and returns the first error.
func (lg *loadgen) each(fn func(i int, c *client) error) error {
	errs := make([]error, len(lg.clients))
	var wg sync.WaitGroup
	for i, c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runCount drives ops total operations, split evenly over the clients,
// in bursts of the workload's depth. It is the warm-up, and part of
// setup_s: like a window it runs in slices of at most sliceDur, each
// ending with a reading of the yardstick, and it returns how long the
// slices took, as measured and at the nominal host speed.
func (lg *loadgen) runCount(ops int, host *meter) (raw, scaled float64, err error) {
	per := ops / len(lg.clients)
	done := make([]int, len(lg.clients))
	for left := true; left && err == nil; {
		host.start()
		t0 := time.Now()
		err = lg.each(func(i int, c *client) error {
			for done[i] < per && time.Since(t0) < sliceDur {
				n := min(lg.w.depth, per-done[i])
				if err := c.burst(c.fill(n), nil); err != nil {
					return err
				}
				done[i] += n
			}
			return nil
		})
		r, s := host.lap()
		raw, scaled = raw+r, scaled+s
		left = slices.Min(done) < per
	}
	return raw, scaled, err
}

// window is what a timed run measured: per slice, how long it ran, the
// verified op count, the sorted latency samples of all clients, and the
// host's speed beside it.
type window struct {
	dur   []time.Duration
	ops   []int64
	lat   [][]int64
	speed []float64
}

func newWindow(n int) window {
	return window{dur: make([]time.Duration, n), ops: make([]int64, n), lat: make([][]int64, n), speed: make([]float64, n)}
}

// runTimed drives n slices of sliceDur each, with a reading of the
// yardstick after each. A
// burst belongs to the slice it started in, and the slice ends when its
// last burst is verified.
func (lg *loadgen) runTimed(n int) (window, error) {
	win := newWindow(n)
	var host meter
	for sl := 0; sl < n; sl++ {
		per := make([][]int64, len(lg.clients))
		host.start()
		t0 := time.Now()
		err := lg.each(func(i int, c *client) error {
			for time.Since(t0) < sliceDur {
				if err := c.burst(c.fill(lg.w.depth), &per[i]); err != nil {
					return err
				}
			}
			return nil
		})
		win.dur[sl] = time.Since(t0)
		if err != nil {
			return win, err
		}
		win.speed[sl] = host.speed()
		win.lat[sl] = slices.Concat(per...)
		slices.Sort(win.lat[sl])
		win.ops[sl] = int64(len(win.lat[sl]))
	}
	return win, nil
}

// readback reads every key the clients wrote and verifies it against the
// model, in bursts of the workload's depth. With sample > 0 it instead
// reads sample preloaded ids per client, for a store that kept nothing
// but its preload.
func (lg *loadgen) readback(sample int) error {
	return lg.each(func(_ int, c *client) error {
		var ids []uint64
		if sample == 0 {
			ids = c.gen.written()
		}
		for k := uint64(0); k < uint64(sample) && k*c.gen.conns+c.gen.conn < c.gen.preload; k++ {
			ids = append(ids, k*c.gen.conns+c.gen.conn)
		}
		for len(ids) > 0 {
			n := min(lg.w.depth, len(ids))
			c.ops = c.ops[:0]
			for _, id := range ids[:n] {
				c.ops = append(c.ops, c.gen.expect(id))
			}
			if err := c.burst(c.ops, nil); err != nil {
				return err
			}
			ids = ids[n:]
		}
		return nil
	})
}

// totals sums the clients' counters and gathers their first failures.
func (lg *loadgen) totals() (attempted, failed int64, errs []string) {
	for _, c := range lg.clients {
		attempted += c.attempted
		failed += c.failed
		errs = append(errs, c.errs...)
	}
	return
}

// throughput returns the per-slice verified ops per second, at the
// nominal host speed.
func (w window) throughput() []float64 {
	out := make([]float64, len(w.ops))
	for i, n := range w.ops {
		out[i] = float64(n) / w.dur[i].Seconds() / w.speed[i]
	}
	return out
}

// latencyUS returns the per-slice q-quantile in microseconds, at the
// nominal host speed.
func (w window) latencyUS(q float64) []float64 {
	out := make([]float64, len(w.lat))
	for i, s := range w.lat {
		out[i] = float64(percentile(s, q)) / 1e3 * w.speed[i]
	}
	return out
}

// samples is how many latency samples the window holds: one per verified
// op of a served workload.
func (w window) samples() int64 {
	var n int64
	for _, s := range w.lat {
		n += int64(len(s))
	}
	return n
}

// Package resp implements the subset of the Redis serialization
// protocol (RESP2) needed by cmd/kvserve and cmd/kvcli: command arrays
// of bulk strings inbound; simple strings, errors, integers, bulk and
// null bulk strings outbound. The paper's Figure 1 measures Redis over
// a Unix domain socket with pipelining; kvserve reproduces that setup
// with the simulated engine behind it.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// MaxBulkLen bounds a single bulk string (defensive).
const MaxBulkLen = 64 << 20

// MaxArrayLen bounds a command's argument count.
const MaxArrayLen = 1 << 20

// IOBufLen is the per-connection I/O buffer size, each way (Redis's
// PROTO_IOBUF_LEN): what one read can pick up off the socket, and so
// the most a pipelining client can have parsed as ONE burst. A burst
// that is cut in two costs every layer below a second round — under
// -aof-fsync always, a second fsync per shard — so the buffer is sized
// to hold the pipelines clients actually send, and every front-end
// reads with the same size so all of them cut bursts in the same place.
const IOBufLen = 16 << 10

// maxLineLen bounds one protocol line (an inline command, or the
// integer after '*', '$' or ':'), CRLF included. It is what the arena
// and Stream parsers enforce whatever the I/O buffer size is: a peer
// that never sends a newline is refused instead of being buffered.
const maxLineLen = 4096

// Reader decodes RESP values from a stream.
type Reader struct {
	br *bufio.Reader

	// Arena state for ReadPipelineReuse (see arena.go): one flat byte
	// buffer for argument bytes, one argument-slice store, and the
	// command list — all reset (length 0, capacity kept) per pipeline
	// burst so the steady state allocates nothing.
	data []byte
	args [][]byte
	cmds [][][]byte
	crlf [2]byte
}

// NewReader wraps r with an IOBufLen read buffer.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, IOBufLen)} }

// ReadCommand reads one client command: either a RESP array of bulk
// strings or an inline command line. It returns a non-empty argument
// list; empty arrays ("*0\r\n") are skipped like Redis does, so
// callers may index args[0] unconditionally.
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		c, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if c != '*' {
			// Inline command: space-separated words on one line.
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			line, err := r.readLine()
			if err != nil {
				return nil, err
			}
			var args [][]byte
			for _, w := range splitWords(line) {
				args = append(args, w)
			}
			if len(args) == 0 {
				return nil, fmt.Errorf("resp: empty inline command")
			}
			return args, nil
		}
		n, err := r.readInt()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > MaxArrayLen {
			return nil, fmt.Errorf("resp: bad array length %d", n)
		}
		if n == 0 {
			continue // empty command array: ignore, read the next one
		}
		args := make([][]byte, 0, n)
		for i := int64(0); i < n; i++ {
			b, err := r.readBulk()
			if err != nil {
				return nil, err
			}
			args = append(args, b)
		}
		return args, nil
	}
}

// Buffered reports how many decoded-but-unconsumed bytes sit in the
// reader's buffer — nonzero when a pipelining client has sent more
// commands than the server has parsed yet.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// TryReadCommand parses one command using only already-buffered bytes:
// it never reads from the underlying connection. It returns (nil, nil)
// when the buffer holds no complete command (empty, or a command split
// mid-stream whose tail has not arrived), a command when one is fully
// buffered, and an error only for malformed input. This is what lets a
// serve loop drain an entire client pipeline without ever blocking on
// a half-received command while replies wait unflushed.
func (r *Reader) TryReadCommand() ([][]byte, error) {
	n := r.br.Buffered()
	if n == 0 {
		return nil, nil
	}
	buf, err := r.br.Peek(n)
	if err != nil {
		return nil, err
	}
	src := bytes.NewReader(buf)
	sub := Reader{br: bufio.NewReaderSize(src, len(buf)+16)}
	args, err := sub.ReadCommand()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil // incomplete: wait for more bytes
		}
		return nil, err
	}
	consumed := n - sub.br.Buffered() - src.Len()
	if _, err := r.br.Discard(consumed); err != nil {
		return nil, err
	}
	return args, nil
}

// ReadPipeline reads one command, blocking if necessary, then drains
// every further command already buffered — the entire pipeline a
// client sent in one burst — up to max commands (0 means no limit).
// The returned slice is never empty when err is nil. When a malformed
// command follows good ones, the good prefix is returned together with
// the error so the server can still answer what it parsed before
// closing the connection.
func (r *Reader) ReadPipeline(max int) ([][][]byte, error) {
	first, err := r.ReadCommand()
	if err != nil {
		return nil, err
	}
	cmds := [][][]byte{first}
	for max <= 0 || len(cmds) < max {
		args, err := r.TryReadCommand()
		if err != nil {
			return cmds, err
		}
		if args == nil {
			break
		}
		cmds = append(cmds, args)
	}
	return cmds, nil
}

// ReadReply reads one server reply and returns it decoded: string for
// simple strings, error for errors, int64 for integers, []byte for
// bulk (nil for null bulk), []any for arrays.
func (r *Reader) ReadReply() (any, error) {
	c, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch c {
	case '+':
		line, err := r.readLine()
		return string(line), err
	case '-':
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		return fmt.Errorf("%s", line), nil
	case ':':
		return r.readInt()
	case '$':
		b, err := r.readBulkBody()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil // null bulk: untyped nil, not []byte(nil)
		}
		return b, nil
	case '*':
		n, err := r.readInt()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, nil
		}
		out := make([]any, 0, n)
		for i := int64(0); i < n; i++ {
			v, err := r.ReadReply()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("resp: unexpected type byte %q", c)
}

func (r *Reader) readBulk() ([]byte, error) {
	c, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if c != '$' {
		return nil, fmt.Errorf("resp: expected bulk string, got %q", c)
	}
	b, err := r.readBulkBody()
	if err == nil && b == nil {
		// A null bulk is a valid *reply* but not a command argument.
		return nil, fmt.Errorf("resp: null bulk string in command")
	}
	return b, err
}

func (r *Reader) readBulkBody() ([]byte, error) {
	n, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if n == -1 {
		return nil, nil // null bulk
	}
	if n < 0 || n > MaxBulkLen {
		return nil, fmt.Errorf("resp: bad bulk length %d", n)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("resp: bulk not CRLF terminated")
	}
	return buf[:n], nil
}

func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(line), 10, 64)
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("resp: line not CRLF terminated")
	}
	return line[:len(line)-2], nil
}

func splitWords(line []byte) [][]byte {
	var out [][]byte
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		if j > i {
			out = append(out, line[i:j])
		}
		i = j
	}
	return out
}

// Writer encodes RESP values. Every write method is allocation-free
// on the steady state (integers are formatted into the writer's own
// scratch buffer, never through fmt), so a pipelined reply burst
// costs only the bufio copies.
type Writer struct {
	bw  *bufio.Writer
	dst spillSink
	// scratch formats integer headers ("$123", ":42", "*7").
	scratch [24]byte
}

// spillSink sits between the buffer and the destination to tell the
// two reasons bytes leave apart: the caller's Flush, or the buffer
// writing itself out because it filled (a spill).
type spillSink struct {
	w        io.Writer
	flushing bool
	onSpill  func()
}

func (s *spillSink) Write(p []byte) (int, error) {
	if !s.flushing && s.onSpill != nil {
		s.onSpill()
	}
	return s.w.Write(p)
}

// NewWriter wraps w with an IOBufLen write buffer.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, IOBufLen) }

// NewWriterSize wraps w with a write buffer of size bytes. The buffer
// bounds the reply memory one connection can hold: output past it is
// written out as it is produced instead of waiting for Flush.
func NewWriterSize(w io.Writer, size int) *Writer {
	wr := &Writer{dst: spillSink{w: w}}
	wr.bw = bufio.NewWriterSize(&wr.dst, size)
	return wr
}

// OnSpill registers f to run each time the buffer fills and writes
// itself out before the caller's Flush (just before the bytes leave).
func (w *Writer) OnSpill(f func()) { w.dst.onSpill = f }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	w.dst.flushing = true
	err := w.bw.Flush()
	w.dst.flushing = false
	return err
}

// Buffered reports how many reply bytes are waiting unflushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

// WriteBulkArray writes an array of bulk strings in one call (the
// MGET reply shape): "*n" then each value, nil elements as null bulks.
// Encoding the whole vector through the one buffered writer is the
// reply-side counterpart of ReadPipeline: one flush covers every
// element.
func (w *Writer) WriteBulkArray(vals [][]byte) error {
	if err := w.WriteArrayHeader(len(vals)); err != nil {
		return err
	}
	for _, v := range vals {
		if err := w.WriteBulk(v); err != nil {
			return err
		}
	}
	return nil
}

// writeIntLine writes "<prefix><n>\r\n" through the scratch buffer.
func (w *Writer) writeIntLine(prefix byte, n int64) error {
	buf := append(w.scratch[:0], prefix)
	buf = strconv.AppendInt(buf, n, 10)
	buf = append(buf, '\r', '\n')
	_, err := w.bw.Write(buf)
	return err
}

// WriteCommand encodes a client command as an array of bulk strings.
func (w *Writer) WriteCommand(args ...[]byte) error {
	if err := w.writeIntLine('*', int64(len(args))); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulk(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteSimple writes "+s\r\n".
func (w *Writer) WriteSimple(s string) error {
	if err := w.bw.WriteByte('+'); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(s); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteError writes "-msg\r\n".
func (w *Writer) WriteError(msg string) error {
	if err := w.bw.WriteByte('-'); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(msg); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteInt writes ":n\r\n".
func (w *Writer) WriteInt(n int64) error {
	return w.writeIntLine(':', n)
}

// WriteArrayHeader writes "*n\r\n"; the caller then writes n elements
// (used for structured replies like SLOWLOG GET).
func (w *Writer) WriteArrayHeader(n int) error {
	return w.writeIntLine('*', int64(n))
}

// WriteBulkString writes s as a bulk string.
func (w *Writer) WriteBulkString(s string) error {
	if err := w.writeIntLine('$', int64(len(s))); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(s); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteBulk writes a bulk string ($-1 for nil).
func (w *Writer) WriteBulk(b []byte) error {
	if b == nil {
		_, err := w.bw.WriteString("$-1\r\n")
		return err
	}
	if err := w.writeIntLine('$', int64(len(b))); err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

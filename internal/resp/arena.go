// Arena-reuse read path: ReadPipelineReuse is ReadPipeline with the
// reader's own reusable buffers instead of fresh allocations — the
// flat data arena holds every argument's bytes, the shared arg store
// holds the slices, and both are reset (length 0, capacity kept) at
// each call, so a steady-state serve loop parses whole pipeline
// bursts with zero allocations.
//
// Aliasing contract: everything ReadPipelineReuse returns (the
// command list, the argument slices, the bytes behind them) is valid
// ONLY until the next ReadPipelineReuse call on the same Reader.
// Callers that keep data across bursts must copy it out (the server's
// engine does: records are copied into simulated memory on SET).
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

var errLineTooLong = errors.New("resp: line too long")

// ReadPipelineReuse reads one command (blocking), then drains every
// further command already buffered, up to max (<= 0 for no limit) —
// the exact semantics of ReadPipeline, minus the allocations. On a
// malformed command following good ones, the good prefix is returned
// with the error.
func (r *Reader) ReadPipelineReuse(max int) ([][][]byte, error) {
	r.data = r.data[:0]
	r.args = r.args[:0]
	r.cmds = r.cmds[:0]
	first, err := r.readCommandArena()
	if err != nil {
		return nil, err
	}
	r.cmds = append(r.cmds, first)
	for max <= 0 || len(r.cmds) < max {
		args, err := r.tryReadCommandArena()
		if err != nil {
			return r.cmds, err
		}
		if args == nil {
			break
		}
		r.cmds = append(r.cmds, args)
	}
	return r.cmds, nil
}

// grow extends the data arena by n bytes and returns the new segment
// (full, capped slice). Growth reallocates; already-returned slices
// keep pointing into the old backing array, whose bytes are never
// rewritten, so they stay valid for the burst.
func (r *Reader) grow(n int) []byte {
	off := len(r.data)
	if cap(r.data)-off < n {
		newCap := 2 * cap(r.data)
		if newCap < off+n {
			newCap = off + n
		}
		nd := make([]byte, off, newCap)
		copy(nd, r.data)
		r.data = nd
	}
	r.data = r.data[:off+n]
	return r.data[off : off+n : off+n]
}

// intern copies b into the arena and returns the arena-backed slice.
func (r *Reader) intern(b []byte) []byte {
	dst := r.grow(len(b))
	copy(dst, b)
	return dst
}

// splitInline splits an arena-backed inline command line into words,
// appending to r.args, and returns the command (nil when empty).
func (r *Reader) splitInline(line []byte) [][]byte {
	start := len(r.args)
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
			r.args = append(r.args, line[i:j:j])
		}
		i = j
	}
	if len(r.args) == start {
		return nil
	}
	return r.args[start:len(r.args):len(r.args)]
}

// readCommandArena is the blocking arena twin of ReadCommand: same
// accepted inputs (arrays of bulks, inline lines, skipped "*0"
// arrays), same validation, but every argument lands in the arena.
// One deliberate tightening: a protocol line longer than maxLineLen
// (only reachable via absurd inline commands or integer lines) is
// rejected instead of accepted, keeping the line scanner on the
// underlying buffer without copies.
func (r *Reader) readCommandArena() ([][]byte, error) {
	for {
		c, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if c != '*' {
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			line, err := r.readLineSlice()
			if err != nil {
				return nil, err
			}
			args := r.splitInline(r.intern(line))
			if args == nil {
				return nil, fmt.Errorf("resp: empty inline command")
			}
			return args, nil
		}
		n, err := r.readIntLineSlice()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > MaxArrayLen {
			return nil, fmt.Errorf("resp: bad array length %d", n)
		}
		if n == 0 {
			continue // empty command array: ignore, read the next one
		}
		start := len(r.args)
		for i := int64(0); i < n; i++ {
			if err := r.readBulkArena(); err != nil {
				return nil, err
			}
		}
		return r.args[start:len(r.args):len(r.args)], nil
	}
}

// readBulkArena reads one "$<len>\r\n<bytes>\r\n" into the arena and
// appends the argument slice.
func (r *Reader) readBulkArena() error {
	c, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if c != '$' {
		return fmt.Errorf("resp: expected bulk string, got %q", c)
	}
	n, err := r.readIntLineSlice()
	if err != nil {
		return err
	}
	if n == -1 {
		return fmt.Errorf("resp: null bulk string in command")
	}
	if n < 0 || n > MaxBulkLen {
		return fmt.Errorf("resp: bad bulk length %d", n)
	}
	dst := r.grow(int(n))
	if _, err := io.ReadFull(r.br, dst); err != nil {
		return err
	}
	if _, err := io.ReadFull(r.br, r.crlf[:]); err != nil {
		return err
	}
	if r.crlf[0] != '\r' || r.crlf[1] != '\n' {
		return fmt.Errorf("resp: bulk not CRLF terminated")
	}
	r.args = append(r.args, dst)
	return nil
}

// readLineSlice reads one CRLF line without allocating (the returned
// slice aliases the bufio buffer: consume before the next read).
func (r *Reader) readLineSlice() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if len(line) > maxLineLen || errors.Is(err, bufio.ErrBufferFull) {
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("resp: line not CRLF terminated")
	}
	return line[: len(line)-2 : len(line)-2], nil
}

func (r *Reader) readIntLineSlice() (int64, error) {
	line, err := r.readLineSlice()
	if err != nil {
		return 0, err
	}
	return parseInt(line)
}

// parseInt is strconv.ParseInt for the RESP integer subset, without
// the string conversion (and its allocation).
func parseInt(b []byte) (int64, error) {
	i, neg := 0, false
	switch {
	case len(b) == 0:
		return 0, fmt.Errorf("resp: empty integer")
	case b[0] == '-':
		neg, i = true, 1
	case b[0] == '+':
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("resp: bad integer %q", b)
	}
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, fmt.Errorf("resp: bad integer %q", b)
		}
		n = n*10 + int64(d)
		if n < 0 {
			return 0, fmt.Errorf("resp: integer overflow in %q", b)
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

// tryReadCommandArena parses one command from already-buffered bytes
// only — (nil, nil) when no complete command is buffered — by direct
// scanning of the peeked window (no sub-reader, no allocation). A
// command too large for the buffered window (e.g. a huge bulk) reads
// as incomplete; the caller's next blocking readCommandArena streams
// it through the arena instead.
func (r *Reader) tryReadCommandArena() ([][]byte, error) {
	for {
		n := r.br.Buffered()
		if n == 0 {
			return nil, nil
		}
		buf, err := r.br.Peek(n)
		if err != nil {
			return nil, err
		}
		args, consumed, err := r.parsePeeked(buf)
		if err != nil {
			return nil, err
		}
		if consumed == 0 {
			return nil, nil // incomplete: wait for more bytes
		}
		if _, err := r.br.Discard(consumed); err != nil {
			return nil, err
		}
		if args == nil {
			continue // skipped empty array: parse the next command
		}
		return args, nil
	}
}

// peekedLine finds the CRLF line starting at p; ok is false when the
// terminator has not arrived yet. A line that is, or can only become,
// longer than maxLineLen is an error whether or not it has ended, so
// a caller that keeps feeding a newline-free line is stopped here.
func peekedLine(buf []byte, p int) (line []byte, next int, ok bool, err error) {
	idx := bytes.IndexByte(buf[p:], '\n')
	if idx >= maxLineLen || (idx < 0 && len(buf)-p >= maxLineLen) {
		return nil, 0, false, errLineTooLong
	}
	if idx < 0 {
		return nil, 0, false, nil
	}
	end := p + idx
	if end == p || buf[end-1] != '\r' {
		return nil, 0, false, fmt.Errorf("resp: line not CRLF terminated")
	}
	return buf[p : end-1], end + 1, true, nil
}

// parsePeeked parses one command from buf. consumed == 0 (with nil
// error) means incomplete. args == nil with consumed > 0 means a
// skipped empty array.
func (r *Reader) parsePeeked(buf []byte) (args [][]byte, consumed int, err error) {
	dataMark, argMark := len(r.data), len(r.args)
	incomplete := func() ([][]byte, int, error) {
		// Roll back partially interned arguments.
		r.data = r.data[:dataMark]
		r.args = r.args[:argMark]
		return nil, 0, nil
	}
	if buf[0] != '*' {
		line, next, ok, err := peekedLine(buf, 0)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return incomplete()
		}
		args := r.splitInline(r.intern(line))
		if args == nil {
			return nil, 0, fmt.Errorf("resp: empty inline command")
		}
		return args, next, nil
	}
	line, p, ok, err := peekedLine(buf, 1)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return incomplete()
	}
	n, err := parseInt(line)
	if err != nil {
		return nil, 0, err
	}
	if n < 0 || n > MaxArrayLen {
		return nil, 0, fmt.Errorf("resp: bad array length %d", n)
	}
	if n == 0 {
		return nil, p, nil // skipped empty array
	}
	for i := int64(0); i < n; i++ {
		if p >= len(buf) {
			return incomplete()
		}
		if buf[p] != '$' {
			return nil, 0, fmt.Errorf("resp: expected bulk string, got %q", buf[p])
		}
		line, next, ok, err := peekedLine(buf, p+1)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return incomplete()
		}
		m, err := parseInt(line)
		if err != nil {
			return nil, 0, err
		}
		if m == -1 {
			return nil, 0, fmt.Errorf("resp: null bulk string in command")
		}
		if m < 0 || m > MaxBulkLen {
			return nil, 0, fmt.Errorf("resp: bad bulk length %d", m)
		}
		end := next + int(m)
		if end+2 > len(buf) {
			return incomplete()
		}
		if buf[end] != '\r' || buf[end+1] != '\n' {
			return nil, 0, fmt.Errorf("resp: bulk not CRLF terminated")
		}
		r.args = append(r.args, r.intern(buf[next:end]))
		p = end + 2
	}
	return r.args[argMark:len(r.args):len(r.args)], p, nil
}

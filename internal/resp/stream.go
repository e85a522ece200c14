// Feed-style incremental parsing for event-loop servers: a Stream
// retains raw bytes the caller read off a non-blocking socket and
// yields complete commands without ever blocking, reusing the same
// arena machinery as ReadPipelineReuse. A reader loop fills the
// stream's buffer with whatever the socket had (Writable/Advance),
// then drains complete commands in pipeline bursts (NextBurst); a
// command split mid-stream simply stays buffered until the next fill.
//
// Aliasing contract, identical to ReadPipelineReuse: everything
// NextBurst returns (the command list, the argument slices, the bytes
// behind them) is valid ONLY until the next NextBurst call on the
// same Stream. Argument bytes are interned into the arena, never
// aliased to the raw buffer, so the raw buffer may be compacted or
// grown between bursts while returned commands stay valid.
//
// Nothing in this repository serves through a Stream any more: its one
// consumer, kvserve's -netloop event-loop front-end, was measured
// against the goroutine-per-connection path and deleted (EXPERIMENTS.md
// "One request path"). The type stays, unchanged, only because the
// repository benchmark compiles against NewStream (bench/ledger.go, row
// resp.stream_parse_ns_per_cmd) and the change that removed the
// front-end was not allowed to edit bench/. A benchmark change can drop
// that row and this file, with its tests, together.
package resp

// streamMinRead is the smallest read segment Writable hands out; a
// bigger request is honored exactly.
const streamMinRead = 4096

// Stream is the incremental command parser. The zero value is ready
// to use.
type Stream struct {
	r   Reader // arena + peeked-buffer parser; its bufio side is unused
	raw []byte // retained socket bytes: raw[off:] is unparsed
	off int    // consumed prefix of raw
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{} }

// Buffered reports how many fed bytes have not been consumed by a
// parsed command yet (a partial command tail, or complete commands
// NextBurst has not drained).
func (s *Stream) Buffered() int { return len(s.raw) - s.off }

// Writable returns a spare segment of at least min bytes (at least
// streamMinRead) for the caller to read socket bytes into, compacting
// the consumed prefix and growing the buffer as needed. The caller
// reports how much it actually filled via Advance.
func (s *Stream) Writable(min int) []byte {
	if min < streamMinRead {
		min = streamMinRead
	}
	if s.off > 0 {
		// Compact: parsed-command bytes live in the arena, never here,
		// so only the unparsed tail needs to move.
		n := copy(s.raw, s.raw[s.off:])
		s.raw = s.raw[:n]
		s.off = 0
	}
	if cap(s.raw)-len(s.raw) < min {
		newCap := 2 * cap(s.raw)
		if newCap < len(s.raw)+min {
			newCap = len(s.raw) + min
		}
		nb := make([]byte, len(s.raw), newCap)
		copy(nb, s.raw)
		s.raw = nb
	}
	return s.raw[len(s.raw):cap(s.raw)]
}

// Advance commits n bytes the caller read into the last Writable
// segment.
func (s *Stream) Advance(n int) { s.raw = s.raw[:len(s.raw)+n] }

// NextBurst parses up to max complete commands (<= 0 for no limit)
// from the buffered bytes — one pipeline burst. It returns an empty
// burst when no complete command is buffered, and never blocks. On a
// malformed command following good ones, the good prefix is returned
// with the error (the caller answers what parsed, then closes). The
// arena is reset per call, so the previous burst's commands become
// invalid — the ReadPipelineReuse contract.
func (s *Stream) NextBurst(max int) ([][][]byte, error) {
	s.r.data = s.r.data[:0]
	s.r.args = s.r.args[:0]
	s.r.cmds = s.r.cmds[:0]
	for max <= 0 || len(s.r.cmds) < max {
		if s.off >= len(s.raw) {
			break
		}
		args, consumed, err := s.r.parsePeeked(s.raw[s.off:])
		if err != nil {
			return s.r.cmds, err
		}
		if consumed == 0 {
			break // incomplete: wait for more bytes
		}
		s.off += consumed
		if args == nil {
			continue // skipped empty array
		}
		s.r.cmds = append(s.r.cmds, args)
	}
	if s.off == len(s.raw) {
		// Fully drained: make the whole buffer writable again without
		// a copy at the next fill.
		s.raw = s.raw[:0]
		s.off = 0
	}
	return s.r.cmds, nil
}

// TakeLeftover returns a copy of the unparsed tail and empties the
// stream — used when a connection detaches from the event loop (e.g.
// MONITOR) and a blocking reader takes over the socket.
func (s *Stream) TakeLeftover() []byte {
	out := append([]byte(nil), s.raw[s.off:]...)
	s.raw = s.raw[:0]
	s.off = 0
	return out
}

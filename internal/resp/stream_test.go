package resp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// streamDrain feeds input to a Stream in chunks of chunkSize and
// collects every command produced, copying args out (the arena is
// reset per burst).
func streamDrain(t *testing.T, input []byte, chunkSize, burstMax int) ([][][]byte, error) {
	t.Helper()
	s := NewStream()
	var out [][][]byte
	collect := func() error {
		for {
			cmds, err := s.NextBurst(burstMax)
			for _, cmd := range cmds {
				cp := make([][]byte, len(cmd))
				for i, a := range cmd {
					cp[i] = append([]byte(nil), a...)
				}
				out = append(out, cp)
			}
			if err != nil {
				return err
			}
			if burstMax > 0 && len(cmds) == burstMax {
				continue // full burst: more may be buffered
			}
			return nil
		}
	}
	for off := 0; off < len(input); off += chunkSize {
		end := off + chunkSize
		if end > len(input) {
			end = len(input)
		}
		chunk := input[off:end]
		for len(chunk) > 0 {
			dst := s.Writable(1)
			n := copy(dst, chunk)
			s.Advance(n)
			chunk = chunk[n:]
		}
		if err := collect(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// readerDrain parses the same input through the blocking arena reader
// (the goroutine-per-conn path) for comparison.
func readerDrain(t *testing.T, input []byte, burstMax int) ([][][]byte, error) {
	t.Helper()
	r := NewReader(bytes.NewReader(input))
	var out [][][]byte
	for {
		cmds, err := r.ReadPipelineReuse(burstMax)
		for _, cmd := range cmds {
			cp := make([][]byte, len(cmd))
			for i, a := range cmd {
				cp[i] = append([]byte(nil), a...)
			}
			out = append(out, cp)
		}
		if err != nil {
			if err.Error() == "EOF" {
				return out, nil
			}
			return out, err
		}
	}
}

func cmdsEqual(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !bytes.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestStreamMatchesReader pins the feed-style parser bit-for-bit to
// the blocking arena reader across chunk boundaries that split
// commands at every offset.
func TestStreamMatchesReader(t *testing.T) {
	var input bytes.Buffer
	input.WriteString("*3\r\n$3\r\nSET\r\n$5\r\nkey:1\r\n$7\r\nvalue:1\r\n")
	input.WriteString("*2\r\n$3\r\nGET\r\n$5\r\nkey:1\r\n")
	input.WriteString("*0\r\n") // empty array: skipped
	input.WriteString("PING\r\n")
	input.WriteString("*1\r\n$4\r\nPING\r\n")
	input.WriteString("  INFO   server  \r\n")
	input.WriteString("*2\r\n$3\r\nDEL\r\n$128\r\n")
	input.Write(bytes.Repeat([]byte("k"), 128))
	input.WriteString("\r\n")
	input.WriteString("*2\r\n$6\r\nEXISTS\r\n$5\r\nkey:2\r\n")
	in := input.Bytes()

	want, err := readerDrain(t, in, 16)
	if err != nil {
		t.Fatalf("reader drain: %v", err)
	}
	if len(want) != 7 {
		t.Fatalf("reader parsed %d commands, want 7", len(want))
	}
	for _, chunk := range []int{1, 2, 3, 5, 7, 13, 64, len(in)} {
		for _, burst := range []int{1, 2, 16, 0} {
			got, err := streamDrain(t, in, chunk, burst)
			if err != nil {
				t.Fatalf("chunk=%d burst=%d: %v", chunk, burst, err)
			}
			if !cmdsEqual(got, want) {
				t.Fatalf("chunk=%d burst=%d: stream parsed %d cmds, reader %d (or bytes differ)",
					chunk, burst, len(got), len(want))
			}
		}
	}
}

// TestLineCapMatchesReader: the longest protocol line is maxLineLen
// bytes, CRLF included, on the blocking reader and on the stream
// alike, whatever the I/O buffer size. One byte more is refused by
// both, after the same good prefix.
func TestLineCapMatchesReader(t *testing.T) {
	inline := func(total int) []byte {
		return append(bytes.Repeat([]byte("a"), total-2), '\r', '\n')
	}
	for _, tc := range []struct {
		total int
		ok    bool
	}{{maxLineLen, true}, {maxLineLen + 1, false}} {
		in := append([]byte("PING\r\n"), inline(tc.total)...)
		want, rerr := readerDrain(t, in, 16)
		got, serr := streamDrain(t, in, len(in), 16)
		if (rerr == nil) != tc.ok || (serr == nil) != tc.ok {
			t.Fatalf("%d-byte line: reader err %v, stream err %v, want accepted=%v", tc.total, rerr, serr, tc.ok)
		}
		if !tc.ok && (!errors.Is(rerr, errLineTooLong) || !errors.Is(serr, errLineTooLong)) {
			t.Fatalf("%d-byte line: reader err %v, stream err %v, want line too long", tc.total, rerr, serr)
		}
		if !cmdsEqual(got, want) {
			t.Fatalf("%d-byte line: stream parsed %d commands, reader %d (or bytes differ)", tc.total, len(got), len(want))
		}
	}
}

// TestStreamRefusesEndlessLine: a peer that never sends a newline is
// refused once maxLineLen bytes are buffered, instead of growing the
// stream's buffer for as long as it keeps sending.
func TestStreamRefusesEndlessLine(t *testing.T) {
	s := NewStream()
	chunk := bytes.Repeat([]byte("a"), 1000)
	for fed := 0; fed < 10*maxLineLen; fed += len(chunk) {
		n := copy(s.Writable(len(chunk)), chunk)
		s.Advance(n)
		if _, err := s.NextBurst(16); err != nil {
			if !errors.Is(err, errLineTooLong) || s.Buffered() >= maxLineLen+len(chunk) {
				t.Fatalf("after %d bytes: err %v with %d buffered", fed+n, err, s.Buffered())
			}
			return
		}
	}
	t.Fatalf("newline-free line never refused; %d bytes buffered", s.Buffered())
}

// TestStreamIncomplete checks a partial command stays buffered and
// completes when its tail arrives.
func TestStreamIncomplete(t *testing.T) {
	s := NewStream()
	head := []byte("*2\r\n$3\r\nGET\r\n$5\r\nab")
	tail := []byte("cde\r\n")
	n := copy(s.Writable(len(head)), head)
	s.Advance(n)
	cmds, err := s.NextBurst(16)
	if err != nil || len(cmds) != 0 {
		t.Fatalf("partial command: got %d cmds, err %v", len(cmds), err)
	}
	if s.Buffered() != len(head) {
		t.Fatalf("Buffered=%d want %d", s.Buffered(), len(head))
	}
	n = copy(s.Writable(len(tail)), tail)
	s.Advance(n)
	cmds, err = s.NextBurst(16)
	if err != nil || len(cmds) != 1 {
		t.Fatalf("completed command: got %d cmds, err %v", len(cmds), err)
	}
	if string(cmds[0][1]) != "abcde" {
		t.Fatalf("arg = %q", cmds[0][1])
	}
	if s.Buffered() != 0 {
		t.Fatalf("Buffered=%d after drain", s.Buffered())
	}
}

// TestStreamMalformed checks the good prefix is returned with the
// error, matching ReadPipelineReuse.
func TestStreamMalformed(t *testing.T) {
	s := NewStream()
	in := []byte("*1\r\n$4\r\nPING\r\n*2\r\n$-1\r\n$3\r\nGET\r\n")
	n := copy(s.Writable(len(in)), in)
	s.Advance(n)
	cmds, err := s.NextBurst(16)
	if err == nil {
		t.Fatal("want error for null bulk in command")
	}
	if len(cmds) != 1 || string(cmds[0][0]) != "PING" {
		t.Fatalf("good prefix not returned: %d cmds", len(cmds))
	}
}

// TestStreamAliasing checks burst N's commands survive feeding and
// parsing activity on the raw buffer (args are interned, never alias
// raw), and that burst N+1 invalidates them per the contract.
func TestStreamAliasing(t *testing.T) {
	s := NewStream()
	in := []byte("*2\r\n$3\r\nGET\r\n$5\r\nfirst\r\n")
	n := copy(s.Writable(len(in)), in)
	s.Advance(n)
	cmds, err := s.NextBurst(16)
	if err != nil || len(cmds) != 1 {
		t.Fatalf("burst 1: %d cmds, %v", len(cmds), err)
	}
	arg := cmds[0][1]
	// Feed more bytes (forces compaction/growth of raw) — the returned
	// arg must be untouched because it lives in the arena.
	in2 := bytes.Repeat([]byte("*2\r\n$3\r\nGET\r\n$5\r\nother\r\n"), 400)
	for len(in2) > 0 {
		dst := s.Writable(1)
		m := copy(dst, in2)
		s.Advance(m)
		in2 = in2[m:]
	}
	if string(arg) != "first" {
		t.Fatalf("arg corrupted by feeding: %q", arg)
	}
}

// TestStreamTakeLeftover checks detaching hands back exactly the
// unparsed tail.
func TestStreamTakeLeftover(t *testing.T) {
	s := NewStream()
	in := []byte("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET")
	n := copy(s.Writable(len(in)), in)
	s.Advance(n)
	if cmds, err := s.NextBurst(16); err != nil || len(cmds) != 1 {
		t.Fatalf("burst: %d cmds, %v", len(cmds), err)
	}
	left := s.TakeLeftover()
	if string(left) != "*2\r\n$3\r\nGET" {
		t.Fatalf("leftover = %q", left)
	}
	if s.Buffered() != 0 {
		t.Fatalf("Buffered=%d after TakeLeftover", s.Buffered())
	}
}

// TestStreamZeroAlloc pins the warm feed+parse path to zero
// allocations per burst, mirroring the arena reader's budget.
func TestStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	s := NewStream()
	var burst bytes.Buffer
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&burst, "*3\r\n$3\r\nSET\r\n$6\r\nkey:%02d\r\n$8\r\nvalue:%02d\r\n", i, i)
	}
	in := burst.Bytes()
	feed := func() {
		rem := in
		for len(rem) > 0 {
			dst := s.Writable(len(rem))
			n := copy(dst, rem)
			s.Advance(n)
			rem = rem[n:]
		}
		cmds, err := s.NextBurst(16)
		if err != nil || len(cmds) != 16 {
			t.Fatalf("burst: %d cmds, %v", len(cmds), err)
		}
	}
	for i := 0; i < 8; i++ {
		feed() // warm arena + raw buffer
	}
	if n := testing.AllocsPerRun(200, feed); n != 0 {
		t.Fatalf("feed+parse allocates %.1f per burst, want 0", n)
	}
}

package resp

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadCommand throws arbitrary bytes at the command reader and
// checks the parser's contract: it never panics, never returns an
// empty argument list without an error, and anything it accepts
// round-trips through WriteCommand bit-for-bit.
func FuzzReadCommand(f *testing.F) {
	seeds := []string{
		// Well-formed array commands.
		"*2\r\n$3\r\nGET\r\n$4\r\nkey1\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
		// Inline commands, extra spaces, pipelined.
		"PING\r\n",
		"GET  key1 \r\nSET k v\r\n",
		// Empty array (ignored), then a real command.
		"*0\r\n+extra\r\n",
		"*0\r\n*1\r\n$4\r\nPING\r\n",
		// Truncated bulks and headers.
		"*1\r\n$5\r\nhel",
		"*2\r\n$3\r\nGET\r\n$4\r\nke",
		"*1\r\n$",
		"*12",
		// Oversized array/bulk headers (must be rejected, not allocated).
		"*1048577\r\n",
		"*1\r\n$67108865\r\n",
		"*1\r\n$999999999999999999\r\n",
		"*99999999999999999999\r\n", // overflows int64
		// Negative and null lengths.
		"*-1\r\n",
		"*1\r\n$-1\r\n",
		// Bad terminators and type bytes.
		"*1\r\n$3\r\nGET\nX\r\n",
		":5\r\n",
		"$3\r\nGET\r\n",
		"\r\n",
		"\x00\x01\x02\r\n",
		// Pipelined streams: many commands per buffer, mixed framings.
		"*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
		"PING\r\nPING\r\nPING\r\nPING\r\nPING\r\nPING\r\nPING\r\nPING\r\n",
		"GET a\r\n*2\r\n$3\r\nGET\r\n$1\r\nb\r\nGET c\r\n*0\r\n*1\r\n$4\r\nQUIT\r\n",
		"*2\r\n$4\r\nMGET\r\n$1\r\na\r\n*3\r\n$4\r\nMSET\r\n$1\r\na\r\n$1\r\n1\r\n",
		// A pipeline whose tail is cut mid-bulk (the TryReadCommand case).
		"*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$4\r\nke",
		// Good commands followed by a malformed one.
		"*1\r\n$4\r\nPING\r\n*1\r\n$x\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			args, err := r.ReadCommand()
			if err != nil {
				return
			}
			if len(args) == 0 {
				t.Fatal("ReadCommand returned empty args without error")
			}
			for _, a := range args {
				if a == nil {
					t.Fatal("ReadCommand returned nil argument")
				}
				if len(a) > MaxBulkLen {
					t.Fatalf("argument of %d bytes exceeds MaxBulkLen", len(a))
				}
			}
			if len(args) > MaxArrayLen {
				t.Fatalf("%d arguments exceed MaxArrayLen", len(args))
			}
			// Round-trip: the canonical encoding of what we parsed
			// must parse back to the same argument list.
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteCommand(args...); err != nil {
				t.Fatalf("WriteCommand(%q): %v", args, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := NewReader(&buf).ReadCommand()
			if err != nil {
				t.Fatalf("re-parse of %q failed: %v", buf.Bytes(), err)
			}
			if len(back) != len(args) {
				t.Fatalf("round trip arg count %d != %d", len(back), len(args))
			}
			for i := range args {
				if !bytes.Equal(back[i], args[i]) {
					t.Fatalf("round trip arg %d: %q != %q", i, back[i], args[i])
				}
			}
		}
	})
}

// FuzzPipelinedStream is the differential check behind the pipelined
// serve loop: however a byte stream is fragmented on the wire (chunk
// size from the fuzzer), draining it through ReadPipeline must yield
// exactly the command sequence a plain ReadCommand loop sees on the
// whole buffer, and TryReadCommand must never consume a command the
// blocking reader would have rejected.
func FuzzPipelinedStream(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"), uint16(3))
	f.Add([]byte("PING\r\nGET a\r\n*0\r\n*1\r\n$4\r\nQUIT\r\n"), uint16(1))
	f.Add([]byte("*3\r\n$4\r\nMSET\r\n$1\r\na\r\n$1\r\n1\r\nPING\r\n"), uint16(7))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*1\r\n$x\r\n"), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		// Reference: sequential blocking reads over the whole buffer.
		var want [][][]byte
		var wantErr error
		ref := NewReader(bytes.NewReader(data))
		for len(want) < 64 {
			args, err := ref.ReadCommand()
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, args)
		}

		// Under test: ReadPipeline over an arbitrarily-chunked stream.
		cs := int(chunk%512) + 1
		r := NewReader(&chunkReader{data: append([]byte(nil), data...), chunk: cs})
		var got [][][]byte
		var gotErr error
		for len(got) < 64 {
			cmds, err := r.ReadPipeline(0)
			got = append(got, cmds...)
			if err != nil {
				gotErr = err
				break
			}
		}

		n := min(len(got), len(want))
		if len(got) < 64 && len(want) < 64 && len(got) != len(want) {
			t.Fatalf("chunk %d: %d commands vs %d sequential", cs, len(got), len(want))
		}
		for i := 0; i < n; i++ {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("chunk %d: cmd %d arg count %d != %d", cs, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if !bytes.Equal(got[i][j], want[i][j]) {
					t.Fatalf("chunk %d: cmd %d arg %d %q != %q", cs, i, j, got[i][j], want[i][j])
				}
			}
		}
		// Error classes must agree when both streams terminated: a
		// malformed stream stays malformed however it is fragmented
		// (EOF flavors may differ by split point).
		if len(got) < 64 && len(want) < 64 {
			wantEOF := errors.Is(wantErr, io.EOF) || errors.Is(wantErr, io.ErrUnexpectedEOF)
			gotEOF := errors.Is(gotErr, io.EOF) || errors.Is(gotErr, io.ErrUnexpectedEOF)
			if wantEOF != gotEOF {
				t.Fatalf("chunk %d: error class diverged: %v vs %v", cs, gotErr, wantErr)
			}
		}
	})
}

// FuzzWriteReplies round-trips the vectored reply writer: a reply
// script decoded from fuzz bytes is written through one buffered
// Writer (bulk arrays, simple strings, ints, nulls), then read back
// reply-by-reply and compared.
func FuzzWriteReplies(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte("\x05hello\x00\x04\x03abc"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		type rep struct {
			kind byte
			str  string
			n    int64
			vals [][]byte
		}
		var script []rep
		for i := 0; i < len(data) && len(script) < 32; {
			op := rep{kind: data[i] % 5}
			i++
			take := func() []byte {
				if i >= len(data) {
					return []byte{}
				}
				n := int(data[i] % 16)
				i++
				if i+n > len(data) {
					n = len(data) - i
				}
				b := data[i : i+n]
				i += n
				return b
			}
			switch op.kind {
			case 0:
				op.str = "OK" // simple strings may not contain CR/LF
				w.WriteSimple(op.str)
			case 1:
				op.n = int64(len(data)) - int64(i)*3
				w.WriteInt(op.n)
			case 2:
				op.vals = [][]byte{take()}
				w.WriteBulk(op.vals[0])
			case 3:
				w.WriteBulk(nil)
			case 4:
				nv := 1
				if i < len(data) {
					nv = int(data[i]%5) + 1
					i++
				}
				for v := 0; v < nv; v++ {
					if v%3 == 2 {
						op.vals = append(op.vals, nil)
					} else {
						op.vals = append(op.vals, take())
					}
				}
				if err := w.WriteBulkArray(op.vals); err != nil {
					t.Fatal(err)
				}
			}
			script = append(script, op)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		r := NewReader(&buf)
		for si, op := range script {
			v, err := r.ReadReply()
			if err != nil {
				t.Fatalf("reply %d: %v", si, err)
			}
			switch op.kind {
			case 0:
				if v != op.str {
					t.Fatalf("reply %d: %v != %q", si, v, op.str)
				}
			case 1:
				if v.(int64) != op.n {
					t.Fatalf("reply %d: %v != %d", si, v, op.n)
				}
			case 2:
				if !bytes.Equal(v.([]byte), op.vals[0]) {
					t.Fatalf("reply %d: %q != %q", si, v, op.vals[0])
				}
			case 3:
				if v != nil {
					t.Fatalf("reply %d: %v != nil", si, v)
				}
			case 4:
				arr := v.([]any)
				if len(arr) != len(op.vals) {
					t.Fatalf("reply %d: %d elements != %d", si, len(arr), len(op.vals))
				}
				for j, want := range op.vals {
					if want == nil {
						if arr[j] != nil {
							t.Fatalf("reply %d elem %d: %v != nil", si, j, arr[j])
						}
					} else if !bytes.Equal(arr[j].([]byte), want) {
						t.Fatalf("reply %d elem %d: %q != %q", si, j, arr[j], want)
					}
				}
			}
		}
		if rest := buf.Len(); rest != 0 {
			t.Fatalf("%d bytes left after reading all replies", rest)
		}
	})
}

// TestEmptyArraySkipped pins the *0 behavior the fuzzer relies on: an
// empty command array is ignored (Redis semantics) instead of being
// returned as a zero-length argument list the server would index.
func TestEmptyArraySkipped(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("*0\r\n*1\r\n$4\r\nPING\r\n")))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("args = %q", args)
	}
}

// FuzzReadPipelineReuse is the differential check behind the arena
// read path: on any input and fragmentation, ReadPipelineReuse must
// yield the same command sequence as ReadPipeline. The arena path
// deliberately rejects protocol lines longer than maxLineLen ("line
// too long"), which the allocating path accepts; streams that trip
// that are exempt from the error-class comparison (the parsed prefix
// must still agree).
func FuzzReadPipelineReuse(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"), uint16(3))
	f.Add([]byte("PING\r\nGET a\r\n*0\r\n*1\r\n$4\r\nQUIT\r\n"), uint16(1))
	f.Add([]byte("*2\r\n$3\r\nSET\r\n$-1\r\n"), uint16(5))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n$bad"), uint16(2))
	// Lengths past MaxInt64 that wrap to small ones (2^64+5 and 2^64+1):
	// the reference rejects them as out of range.
	f.Add([]byte("*1\r\n$18446744073709551621\r\nhello\r\n"), uint16(64))
	f.Add([]byte("*18446744073709551617\r\n$4\r\nPING\r\n"), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		cs := int(chunk%512) + 1
		ref := NewReader(&chunkReader{data: append([]byte(nil), data...), chunk: cs})
		var want [][][]byte
		var wantErr error
		for len(want) < 64 {
			cmds, err := ref.ReadPipeline(0)
			want = append(want, cmds...)
			if err != nil {
				wantErr = err
				break
			}
		}
		r := NewReader(&chunkReader{data: append([]byte(nil), data...), chunk: cs})
		var got [][][]byte
		var gotErr error
		for len(got) < 64 {
			cmds, err := r.ReadPipelineReuse(0)
			for _, args := range cmds {
				cp := make([][]byte, len(args))
				for i, a := range args {
					cp[i] = append([]byte(nil), a...)
				}
				got = append(got, cp)
			}
			if err != nil {
				gotErr = err
				break
			}
		}
		tooLong := errors.Is(gotErr, errLineTooLong)
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("chunk %d: cmd %d arg count %d != %d", cs, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if !bytes.Equal(got[i][j], want[i][j]) {
					t.Fatalf("chunk %d: cmd %d arg %d %q != %q", cs, i, j, got[i][j], want[i][j])
				}
			}
		}
		if tooLong {
			return
		}
		if len(got) < 64 && len(want) < 64 {
			if len(got) != len(want) {
				t.Fatalf("chunk %d: %d commands vs %d", cs, len(got), len(want))
			}
			wantEOF := errors.Is(wantErr, io.EOF) || errors.Is(wantErr, io.ErrUnexpectedEOF)
			gotEOF := errors.Is(gotErr, io.EOF) || errors.Is(gotErr, io.ErrUnexpectedEOF)
			if wantEOF != gotEOF {
				t.Fatalf("chunk %d: error class diverged: %v vs %v", cs, gotErr, wantErr)
			}
		}
	})
}

package resp

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// encodePipeline renders commands as RESP arrays of bulk strings.
func encodePipeline(cmds [][][]byte) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, args := range cmds {
		_ = w.WriteCommand(args...)
	}
	_ = w.Flush()
	return buf.Bytes()
}

// TestReadPipelineReuseMatchesReadPipeline: the arena path must parse
// byte-identical commands to the allocating path on the same input.
func TestReadPipelineReuseMatchesReadPipeline(t *testing.T) {
	inputs := [][]byte{
		encodePipeline([][][]byte{
			{[]byte("GET"), []byte("user1")},
			{[]byte("SET"), []byte("user2"), bytes.Repeat([]byte("v"), 300)},
			{[]byte("PING")},
			{[]byte("MGET"), []byte("a"), []byte("b"), []byte("c")},
		}),
		[]byte("PING\r\nGET inlinekey\r\n*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n"),
		[]byte("*0\r\n*1\r\n$4\r\nPING\r\n"),
		// A bulk larger than the bufio buffer (streams via the blocking path).
		encodePipeline([][][]byte{{[]byte("SET"), []byte("big"), bytes.Repeat([]byte("x"), 8192)}}),
	}
	for ti, in := range inputs {
		ra := NewReader(bytes.NewReader(in))
		rb := NewReader(bytes.NewReader(in))
		for {
			want, werr := ra.ReadPipeline(64)
			got, gerr := rb.ReadPipelineReuse(64)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("input %d: error mismatch: ReadPipeline %v vs Reuse %v", ti, werr, gerr)
			}
			if len(got) != len(want) {
				t.Fatalf("input %d: %d commands vs %d", ti, len(got), len(want))
			}
			for ci := range want {
				if len(got[ci]) != len(want[ci]) {
					t.Fatalf("input %d cmd %d: arg count %d vs %d", ti, ci, len(got[ci]), len(want[ci]))
				}
				for ai := range want[ci] {
					if !bytes.Equal(got[ci][ai], want[ci][ai]) {
						t.Fatalf("input %d cmd %d arg %d: %q vs %q", ti, ci, ai, got[ci][ai], want[ci][ai])
					}
				}
			}
			if werr != nil {
				break
			}
		}
	}
}

// TestReadPipelineReuseChunked feeds a pipeline byte-by-byte through
// a chunked reader, so every command crosses a buffer boundary and
// the incomplete-rollback path runs.
func TestReadPipelineReuseChunked(t *testing.T) {
	var cmds [][][]byte
	for i := 0; i < 20; i++ {
		cmds = append(cmds, [][]byte{[]byte("SET"), fmt.Appendf(nil, "key%03d", i), bytes.Repeat([]byte{byte('a' + i%26)}, 40+i)})
	}
	in := encodePipeline(cmds)
	r := NewReader(&chunkReader{data: in, chunk: 7})
	var got int
	for got < len(cmds) {
		burst, err := r.ReadPipelineReuse(0)
		if err != nil {
			t.Fatalf("after %d commands: %v", got, err)
		}
		for _, args := range burst {
			want := cmds[got]
			if len(args) != len(want) {
				t.Fatalf("cmd %d: %d args, want %d", got, len(args), len(want))
			}
			for ai := range want {
				if !bytes.Equal(args[ai], want[ai]) {
					t.Fatalf("cmd %d arg %d: %q, want %q", got, ai, args[ai], want[ai])
				}
			}
			got++
		}
	}
}

// TestReadPipelineReuseMalformed: malformed inputs error identically
// (modulo message) to the allocating path, and a good prefix is still
// returned.
func TestReadPipelineReuseMalformed(t *testing.T) {
	for _, in := range []string{
		"*2\r\n$3\r\nGET\r\n$-1\r\n",       // null bulk in command
		"*-4\r\n",                          // bad array length
		"*1\r\n$900000000000000000000\r\n", // overflow bulk length
		"*1\r\n:5\r\n",                     // not a bulk
		"*1\r\n$3\r\nGETxx",                // bad terminator
		"\r\n",                             // empty inline
		"*1\r\n$4\r\nPING\r\n*1\r\n$bad\r\nx\r\n", // good prefix then bad
	} {
		ra := NewReader(strings.NewReader(in))
		rb := NewReader(strings.NewReader(in))
		want, werr := ra.ReadPipeline(16)
		got, gerr := rb.ReadPipelineReuse(16)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("input %q: ReadPipeline err %v vs Reuse err %v", in, werr, gerr)
			continue
		}
		if len(want) != len(got) {
			t.Errorf("input %q: prefix %d commands vs %d", in, len(want), len(got))
		}
	}
}

// TestReadPipelineReuseZeroAlloc pins the read path's budget: parsing
// a warm pipeline burst allocates nothing.
//
// Allocation budget table (steady state, warm buffers):
//
//	ReadPipelineReuse (burst of small commands)  0 allocs
//	Writer.WriteSimple/WriteInt/WriteBulk/...    0 allocs
//	Writer.WriteCommand                          0 allocs
func TestReadPipelineReuseZeroAlloc(t *testing.T) {
	in := encodePipeline([][][]byte{
		{[]byte("GET"), []byte("user00000001")},
		{[]byte("SET"), []byte("user00000002"), bytes.Repeat([]byte("v"), 64)},
		{[]byte("EXISTS"), []byte("user00000003")},
		{[]byte("DEL"), []byte("user00000004")},
	})
	src := bytes.NewReader(in)
	r := NewReader(src)
	// Warm the arena.
	for i := 0; i < 4; i++ {
		src.Reset(in)
		if _, err := r.ReadPipelineReuse(16); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		src.Reset(in)
		cmds, err := r.ReadPipelineReuse(16)
		if err != nil || len(cmds) != 4 {
			t.Fatalf("burst: %d cmds, err %v", len(cmds), err)
		}
	}); n != 0 {
		t.Errorf("ReadPipelineReuse: %.1f allocs/burst, budget 0", n)
	}
}

// TestWriterZeroAlloc pins the write path's budget: every reply shape
// the server's hot path emits is allocation-free.
func TestWriterZeroAlloc(t *testing.T) {
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	w := NewWriter(&sink)
	val := bytes.Repeat([]byte("v"), 64)
	for name, f := range map[string]func(){
		"WriteSimple":      func() { _ = w.WriteSimple("OK") },
		"WriteError":       func() { _ = w.WriteError("ERR nope") },
		"WriteInt":         func() { _ = w.WriteInt(123456) },
		"WriteBulk":        func() { _ = w.WriteBulk(val) },
		"WriteNullBulk":    func() { _ = w.WriteBulk(nil) },
		"WriteArrayHeader": func() { _ = w.WriteArrayHeader(7) },
		"WriteBulkString":  func() { _ = w.WriteBulkString("detail") },
		"WriteCommand":     func() { _ = w.WriteCommand(val) },
	} {
		sink.Reset()
		if n := testing.AllocsPerRun(1000, func() {
			f()
			sink.Reset()
		}); n != 0 {
			t.Errorf("%s: %.1f allocs/op, budget 0", name, n)
		}
	}
}

// TestWriterOutputUnchanged: the scratch-buffer rewrite emits the
// exact bytes the fmt-based writer produced.
func TestWriterOutputUnchanged(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteSimple("OK")
	_ = w.WriteError("ERR wrong")
	_ = w.WriteInt(-42)
	_ = w.WriteInt(0)
	_ = w.WriteArrayHeader(3)
	_ = w.WriteBulk([]byte("abc"))
	_ = w.WriteBulk(nil)
	_ = w.WriteBulkString("s")
	_ = w.WriteCommand([]byte("GET"), []byte("k"))
	_ = w.Flush()
	want := "+OK\r\n-ERR wrong\r\n:-42\r\n:0\r\n*3\r\n$3\r\nabc\r\n$-1\r\n$1\r\ns\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	if buf.String() != want {
		t.Fatalf("output changed:\ngot  %q\nwant %q", buf.String(), want)
	}
}

// onceReader hands out everything it has, up to len(p), on each Read
// — a socket holding one client write — and counts the reads, so a
// test can show that no read was attempted which on a drained socket
// would have blocked.
type onceReader struct {
	data  []byte
	reads int
}

func (o *onceReader) Read(p []byte) (int, error) {
	o.reads++
	if len(o.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, o.data)
	o.data = o.data[n:]
	return n, nil
}

// setPipeline encodes n SETs of a 24-byte key and a 256-byte value,
// 308 bytes each.
func setPipeline(n int) []byte {
	var cmds [][][]byte
	for i := 0; i < n; i++ {
		cmds = append(cmds, [][]byte{[]byte("SET"), fmt.Appendf(nil, "user%020d", i), bytes.Repeat([]byte("v"), 256)})
	}
	return encodePipeline(cmds)
}

// TestReadPipelineReuseWholeBurst: a 16-SET pipeline of 4928 bytes —
// more than the 4 KiB a default bufio.Reader holds — that arrives in
// one read comes back as one burst.
func TestReadPipelineReuseWholeBurst(t *testing.T) {
	in := setPipeline(16)
	if len(in) != 4928 {
		t.Fatalf("pipeline is %d bytes, want 4928", len(in))
	}
	src := &onceReader{data: in}
	cmds, err := NewReader(src).ReadPipelineReuse(0)
	if err != nil || len(cmds) != 16 || src.reads != 1 {
		t.Fatalf("got %d commands in %d read(s), err %v; want 16 in 1", len(cmds), src.reads, err)
	}
}

// TestReadPipelineReuseSplitsPastBuffer: a pipeline larger than the
// read buffer comes back as the commands that fit whole, without a
// second read for the one cut by the buffer's end (which on a socket
// could block with replies unflushed); the next call picks the rest up.
func TestReadPipelineReuseSplitsPastBuffer(t *testing.T) {
	const n = 64
	src := &onceReader{data: setPipeline(n)}
	r := NewReader(src)
	first, err := r.ReadPipelineReuse(0)
	if want := IOBufLen / 308; err != nil || len(first) != want || src.reads != 1 {
		t.Fatalf("first burst: %d commands in %d read(s), err %v; want %d in 1", len(first), src.reads, err, want)
	}
	rest, err := r.ReadPipelineReuse(0)
	if err != nil || len(first)+len(rest) != n || src.reads != 2 {
		t.Fatalf("second burst: %d commands after %d read(s), err %v; want %d after 2", len(rest), src.reads, err, n-len(first))
	}
}

func TestParseInt(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"123", 123, true}, {"-1", -1, true},
		{"+7", 7, true}, {"9223372036854775807", 1<<63 - 1, true},
		{"", 0, false}, {"-", 0, false}, {"12a", 0, false},
		{"9223372036854775808", 0, false}, {" 1", 0, false},
	} {
		got, err := parseInt([]byte(tc.in))
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("parseInt(%q) = (%d, %v), want (%d, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

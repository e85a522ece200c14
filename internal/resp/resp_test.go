package resp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand([]byte("SET"), []byte("k1"), []byte("v with spaces")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "v with spaces" {
		t.Fatalf("args = %q", args)
	}
}

func TestInlineCommand(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\nGET  key1 \r\n"))
	args, err := r.ReadCommand()
	if err != nil || len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("inline 1: %q, %v", args, err)
	}
	args, err = r.ReadCommand()
	if err != nil || len(args) != 2 || string(args[1]) != "key1" {
		t.Fatalf("inline 2: %q, %v", args, err)
	}
}

func TestReplyKinds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("OK")
	w.WriteError("ERR nope")
	w.WriteInt(-42)
	w.WriteBulk([]byte("data"))
	w.WriteBulk(nil)
	w.Flush()

	r := NewReader(&buf)
	if v, _ := r.ReadReply(); v != "OK" {
		t.Fatalf("simple = %v", v)
	}
	if v, _ := r.ReadReply(); v.(error).Error() != "ERR nope" {
		t.Fatalf("error = %v", v)
	}
	if v, _ := r.ReadReply(); v.(int64) != -42 {
		t.Fatalf("int = %v", v)
	}
	if v, _ := r.ReadReply(); string(v.([]byte)) != "data" {
		t.Fatalf("bulk = %v", v)
	}
	if v, _ := r.ReadReply(); v != nil {
		t.Fatalf("null bulk = %v", v)
	}
}

func TestArrayReply(t *testing.T) {
	r := NewReader(strings.NewReader("*2\r\n$1\r\na\r\n:5\r\n"))
	v, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	arr := v.([]any)
	if len(arr) != 2 || string(arr[0].([]byte)) != "a" || arr[1].(int64) != 5 {
		t.Fatalf("array = %v", arr)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []string{
		"*1\r\n:5\r\n",         // array element not bulk in a command
		"$5\r\nab\r\n",         // short bulk
		"*-2\r\n",              // negative array
		"$999999999999999\r\n", // oversized bulk
		"!weird\r\n",
	}
	for _, in := range cases {
		r := NewReader(strings.NewReader(in))
		if _, err := r.ReadCommand(); err == nil {
			// Some of these are reply-level errors; try that too.
			r2 := NewReader(strings.NewReader(in))
			if _, err2 := r2.ReadReply(); err2 == nil {
				t.Errorf("input %q accepted by both paths", in)
			}
		}
	}
}

func TestEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestPipelinedCommands(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		w.WriteCommand([]byte("GET"), []byte(fmt.Sprintf("key%d", i)))
	}
	w.Flush()
	r := NewReader(&buf)
	for i := 0; i < 100; i++ {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("cmd %d: %v", i, err)
		}
		if string(args[1]) != fmt.Sprintf("key%d", i) {
			t.Fatalf("cmd %d out of order: %q", i, args[1])
		}
	}
}

// chunkReader returns bytes in fixed-size chunks, simulating a socket
// delivering a pipelined burst in several reads.
type chunkReader struct {
	data  []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// TestReadPipelineDrainsBurst: a burst of commands arriving in one
// buffer must come back from a single ReadPipeline call, in order.
func TestReadPipelineDrainsBurst(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 32
	for i := 0; i < n; i++ {
		w.WriteCommand([]byte("GET"), []byte(fmt.Sprintf("key%d", i)))
	}
	w.Flush()
	r := NewReader(&buf)
	cmds, err := r.ReadPipeline(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != n {
		t.Fatalf("ReadPipeline returned %d commands, want %d", len(cmds), n)
	}
	for i, args := range cmds {
		if string(args[1]) != fmt.Sprintf("key%d", i) {
			t.Fatalf("cmd %d = %q", i, args[1])
		}
	}
	if _, err := r.ReadPipeline(0); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want EOF", err)
	}
}

// TestReadPipelineMaxDepth: the depth cap bounds one batch; the rest
// of the burst is picked up by the next call.
func TestReadPipelineMaxDepth(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		w.WriteCommand([]byte("PING"))
	}
	w.Flush()
	r := NewReader(&buf)
	cmds, err := r.ReadPipeline(4)
	if err != nil || len(cmds) != 4 {
		t.Fatalf("first batch = %d cmds, err %v; want 4, nil", len(cmds), err)
	}
	cmds, err = r.ReadPipeline(0)
	if err != nil || len(cmds) != 6 {
		t.Fatalf("second batch = %d cmds, err %v; want 6, nil", len(cmds), err)
	}
}

// TestTryReadCommandIncomplete: a command split mid-bulk must not be
// consumed (nil, nil), and must parse once the tail arrives.
func TestTryReadCommandIncomplete(t *testing.T) {
	full := "*2\r\n$3\r\nGET\r\n$4\r\nkey1\r\n"
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(io.MultiReader(
			strings.NewReader(full[:cut]), strings.NewReader(full[cut:])))
		// Prime the buffer with exactly the first fragment.
		if _, err := r.br.Peek(cut); err != nil {
			t.Fatal(err)
		}
		args, err := r.TryReadCommand()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if args != nil {
			t.Fatalf("cut %d: parsed %q from incomplete buffer", cut, args)
		}
		// The blocking read must still see the whole command.
		args, err = r.ReadCommand()
		if err != nil || len(args) != 2 || string(args[1]) != "key1" {
			t.Fatalf("cut %d: recovery read = %q, %v", cut, args, err)
		}
	}
}

// TestReadPipelineChunked: however a burst is fragmented on the wire,
// the concatenation of successive ReadPipeline batches must equal the
// original command sequence.
func TestReadPipelineChunked(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 25
	for i := 0; i < n; i++ {
		w.WriteCommand([]byte("SET"), []byte(fmt.Sprintf("key%d", i)), []byte("value"))
	}
	w.Flush()
	wire := buf.Bytes()
	for _, chunk := range []int{1, 2, 3, 7, 16, 64, len(wire)} {
		r := NewReader(&chunkReader{data: append([]byte(nil), wire...), chunk: chunk})
		var got int
		for {
			cmds, err := r.ReadPipeline(0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			for _, args := range cmds {
				if string(args[1]) != fmt.Sprintf("key%d", got) {
					t.Fatalf("chunk %d: cmd %d = %q", chunk, got, args[1])
				}
				got++
			}
		}
		if got != n {
			t.Fatalf("chunk %d: got %d commands, want %d", chunk, got, n)
		}
	}
}

// TestReadPipelineMalformedTail: good commands parsed before a
// malformed one must be returned alongside the error.
func TestReadPipelineMalformedTail(t *testing.T) {
	r := NewReader(strings.NewReader("*1\r\n$4\r\nPING\r\n*1\r\n$x\r\n"))
	cmds, err := r.ReadPipeline(0)
	if err == nil {
		t.Fatal("malformed tail not reported")
	}
	if len(cmds) != 1 || string(cmds[0][0]) != "PING" {
		t.Fatalf("good prefix lost: %q", cmds)
	}
}

func TestWriteBulkArray(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBulkArray([][]byte{[]byte("a"), nil, []byte("ccc")}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	v, err := NewReader(&buf).ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	arr := v.([]any)
	if len(arr) != 3 || string(arr[0].([]byte)) != "a" || arr[1] != nil || string(arr[2].([]byte)) != "ccc" {
		t.Fatalf("array = %v", arr)
	}
}

func TestWriterBuffered(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if w.Buffered() != 0 {
		t.Fatal("fresh writer has buffered bytes")
	}
	w.WriteSimple("OK")
	if w.Buffered() != len("+OK\r\n") {
		t.Fatalf("Buffered = %d", w.Buffered())
	}
	w.Flush()
	if w.Buffered() != 0 {
		t.Fatal("flush left buffered bytes")
	}
}

// TestWriterSpills: output past the buffer's size leaves before Flush
// and is reported through OnSpill; the caller's own Flush is not a
// spill. Checked at a tiny size and at the default one.
func TestWriterSpills(t *testing.T) {
	for _, size := range []int{64, IOBufLen} {
		var buf bytes.Buffer
		w := NewWriterSize(&buf, size)
		spills := 0
		w.OnSpill(func() { spills++ })
		w.WriteSimple("OK")
		if spills != 0 || buf.Len() != 0 {
			t.Fatalf("size %d: %d spill(s), %d bytes out before the buffer filled", size, spills, buf.Len())
		}
		w.WriteBulk(bytes.Repeat([]byte("x"), size))
		if spills == 0 || buf.Len() == 0 {
			t.Fatalf("size %d: no spill after writing more than the buffer holds", size)
		}
		n := spills
		w.Flush()
		if spills != n {
			t.Fatalf("size %d: Flush counted as a spill", size)
		}
	}
}

func TestBulkRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if payload == nil {
			payload = []byte{}
		}
		w.WriteCommand([]byte("SET"), []byte("k"), payload)
		w.Flush()
		args, err := NewReader(&buf).ReadCommand()
		return err == nil && bytes.Equal(args[2], payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClientRoundTrip: Dial/Do against a listener that answers with the
// package's own Writer — one command out, each reply kind back decoded
// as ReadReply documents, an error reply as a value rather than an err.
func TestClientRoundTrip(t *testing.T) {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cases := []struct {
		cmd   []string
		reply func(w *Writer)
		want  any
	}{
		{[]string{"PING"}, func(w *Writer) { w.WriteSimple("PONG") }, "PONG"},
		{[]string{"GET", "a", "b"}, func(w *Writer) { w.WriteError("ERR wrong number of arguments") }, fmt.Errorf("ERR wrong number of arguments")},
		{[]string{"GET", "k"}, func(w *Writer) { w.WriteBulkString("v with\r\nCRLF") }, []byte("v with\r\nCRLF")},
		{[]string{"GET", "absent"}, func(w *Writer) { w.WriteBulk(nil) }, nil},
		{[]string{"DBSIZE"}, func(w *Writer) { w.WriteInt(42) }, int64(42)},
		{[]string{"MGET", "k", "absent"}, func(w *Writer) { w.WriteBulkArray([][]byte{[]byte("v"), nil}) }, []any{[]byte("v"), nil}},
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r, w := NewReader(conn), NewWriter(conn)
		for _, tc := range cases {
			args, err := r.ReadCommand()
			if err != nil || len(args) != len(tc.cmd) || string(args[0]) != tc.cmd[0] {
				w.WriteError(fmt.Sprintf("ERR server read %q, %v", args, err))
			} else {
				tc.reply(w)
			}
			w.Flush()
		}
	}()
	c, err := Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range cases {
		got, err := c.Do(tc.cmd...)
		if err != nil {
			t.Fatalf("%v: %v", tc.cmd, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v = %#v, want %#v", tc.cmd, got, tc.want)
		}
	}
	if _, err := c.Do("PING"); err == nil {
		t.Error("Do on a connection the server closed returned no error")
	}
	if _, err := Dial("unix", ln.Addr().String()+".absent"); err == nil {
		t.Error("Dial of a missing socket returned no error")
	}
}

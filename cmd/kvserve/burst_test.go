// Burst integrity: what a client sends as one pipelined write must
// reach dispatch as ONE burst, because everything below amortises per
// burst — one ring hop and one drain per touched shard, and under
// -aof-fsync always one write+fsync per touched shard. Ingress that
// cuts the burst doubles all of those.
package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"

	"addrkv/internal/resp"
)

// setBurst encodes n pipelined SETs with 24-byte keys and 256-byte
// values (308 bytes each): at n = 16 the 4928-byte burst the
// durable-write benchmark sends, which a 4 KiB reader cut into 13 + 3.
func setBurst(n int) (raw []byte, keys [][]byte) {
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user%020d", i))
		keys = append(keys, key)
		_ = w.WriteCommand([]byte("SET"), key, val)
	}
	_ = w.Flush()
	return buf.Bytes(), keys
}

// sendBurst writes raw with one conn.Write and reads n +OK replies.
func sendBurst(t *testing.T, conn net.Conn, r *resp.Reader, raw []byte, n int) {
	t.Helper()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := r.ReadReply(); err != nil || v != "OK" {
			t.Fatalf("reply %d = %v, %v", i, v, err)
		}
	}
}

// TestBurstIntegrity: 16 SETs written with one conn.Write are one
// pipeline batch of depth 16.
func TestBurstIntegrity(t *testing.T) {
	raw, _ := setBurst(16)
	if len(raw) != 4928 {
		t.Fatalf("burst is %d bytes, want 4928", len(raw))
	}
	t.Run("goroutine", func(t *testing.T) {
		s := newWorkerServer(t, 2)
		r, _, conn := tcpClient(t, tcpFrontend(t, s))
		sendBurst(t, conn, r, raw, 16)
		if b, c := s.tele.pipeBatches.Load(), s.tele.pipeCmds.Load(); b != 1 || c != 16 {
			t.Fatalf("burst of 16 parsed as %d batch(es) holding %d commands, want 1 of 16", b, c)
		}
	})
}

// TestBurstIntegrityFsyncs: with the log on and -aof-fsync always, a
// client burst can be committed with one fsync per shard it touched.
// How a worker groups what is in its ring is the ring's business, not
// ingress's: one that wakes on the first request may drain the burst
// in two pieces. The workers therefore run on one P, where the reader
// has queued its whole burst before any of them runs, and the best of
// a few bursts is held to the bound in case the reader is preempted
// mid-burst. A reader that cuts the burst misses it every time.
func TestBurstIntegrityFsyncs(t *testing.T) {
	s := newPersistServer(t, 2, t.TempDir(), "always", true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // after newServer, which gives -aof two
	r, _, conn := tcpClient(t, tcpFrontend(t, s))

	raw, keys := setBurst(16)
	c := s.sys.Cluster()
	touched := map[int]bool{}
	for _, k := range keys {
		touched[c.ShardFor(k)] = true
	}
	fsyncs := func() (n uint64) {
		for i := 0; i < c.NumShards(); i++ {
			n += c.WAL(i).Stats().Fsyncs
		}
		return n
	}
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		before := fsyncs()
		sendBurst(t, conn, r, raw, 16)
		if got := fsyncs() - before; got < best {
			best = got
		}
	}
	if best == 0 || best > uint64(len(touched)) {
		t.Fatalf("at best %d fsyncs for one burst touching %d shard(s)", best, len(touched))
	}
}

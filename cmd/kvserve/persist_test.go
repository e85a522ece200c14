package main

import (
	"fmt"
	"strings"
	"testing"

	"addrkv"
	"addrkv/internal/wal"
)

// newPersistServer builds a server with durability on, recovering
// whatever dir already holds.
func newPersistServer(t *testing.T, shards int, dir, fsync string, workers bool) *server {
	t.Helper()
	cfg := testConfig(shards)
	cfg.aof, cfg.aofDir, cfg.aofFsync = true, dir, fsync
	return newConfigServer(t, cfg, workers)
}

// TestPersistRestartRoundTrip: data set through the server survives a
// restart, INFO grows a persistence section, and BGSAVE/LASTSAVE work.
func TestPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newPersistServer(t, 2, dir, "everysec", false)
	for i := 0; i < 50; i++ {
		if got := call(t, s, "SET", fmt.Sprintf("pk-%d", i), fmt.Sprintf("pv-%d", i)); got != "OK" {
			t.Fatalf("SET = %v", got)
		}
	}
	call(t, s, "DEL", "pk-7")
	if got := call(t, s, "LASTSAVE"); got.(int64) != 0 {
		t.Fatalf("LASTSAVE before any save = %v", got)
	}
	if got := call(t, s, "BGSAVE"); got != "Background saving started" {
		t.Fatalf("BGSAVE = %v", got)
	}
	s.persist.saveWG.Wait()
	if got := call(t, s, "LASTSAVE"); got.(int64) == 0 {
		t.Fatal("LASTSAVE still 0 after BGSAVE")
	}
	info := string(call(t, s, "INFO").([]byte))
	for _, want := range []string{"# persistence", "aof_enabled:1", "aof_fsync:everysec", "bgsaves_ok:1", "aof_shard0_gen:2"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
	// More writes after the snapshot land in the new generation's tail.
	call(t, s, "SET", "post-snap", "tail-value")
	s.close()

	s2 := newPersistServer(t, 2, dir, "everysec", false)
	if got := call(t, s2, "DBSIZE"); got.(int64) != 50 {
		t.Fatalf("recovered DBSIZE = %v, want 50", got)
	}
	if got := call(t, s2, "GET", "pk-3"); string(got.([]byte)) != "pv-3" {
		t.Fatalf("GET pk-3 = %v", got)
	}
	if got := call(t, s2, "GET", "pk-7"); got != nil {
		t.Fatal("deleted key resurrected by recovery")
	}
	if got := call(t, s2, "GET", "post-snap"); string(got.([]byte)) != "tail-value" {
		t.Fatalf("GET post-snap = %v", got)
	}
	info = string(call(t, s2, "INFO").([]byte))
	if !strings.Contains(info, "recovered_records:") {
		t.Fatalf("INFO missing recovery stats:\n%s", info)
	}
}

// TestPersistShardCountMismatch: restarting with a different -shards
// must refuse to recover rather than misroute replay.
func TestPersistShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	s := newPersistServer(t, 2, dir, "no", false)
	call(t, s, "SET", "k", "v")
	s.close()
	cfg := testConfig(3)
	cfg.aof, cfg.aofDir, cfg.aofFsync = true, dir, "no"
	if _, err := newServer(cfg); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}

// persistScript issues a deterministic pipelined workload over one
// connection, returning the concatenated reply transcript and the
// expected surviving key/value map. betweenChunks (optional) runs
// after each chunk is flushed but before its replies are drained —
// i.e. while the server is dispatching the chunk.
func persistScript(t *testing.T, s *server, nCmds int, betweenChunks func(chunk int)) (string, map[string]string) {
	t.Helper()
	r, w, conn := pipeClient(t, s)
	defer conn.Close()
	want := map[string]string{}
	var transcript strings.Builder
	const chunk = 40
	for base := 0; base < nCmds; base += chunk {
		sent := 0
		for i := base; i < base+chunk && i < nCmds; i++ {
			key := fmt.Sprintf("tk-%d", i%211)
			switch {
			case i%13 == 4:
				if err := w.WriteCommand([]byte("DEL"), []byte(key)); err != nil {
					t.Fatal(err)
				}
				delete(want, key)
			case i%7 == 2:
				if err := w.WriteCommand([]byte("GET"), []byte(key)); err != nil {
					t.Fatal(err)
				}
			default:
				val := fmt.Sprintf("tv-%d", i)
				if err := w.WriteCommand([]byte("SET"), []byte(key), []byte(val)); err != nil {
					t.Fatal(err)
				}
				want[key] = val
			}
			sent++
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if betweenChunks != nil {
			betweenChunks(base / chunk)
		}
		for j := 0; j < sent; j++ {
			v, err := r.ReadReply()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&transcript, "%d:%v;", base+j, replyString(v))
		}
	}
	return transcript.String(), want
}

func replyString(v any) string {
	if b, ok := v.([]byte); ok {
		return string(b)
	}
	return fmt.Sprint(v)
}

// TestSnapshotDuringTraffic: continuous background BGSAVEs while a
// client streams mutations must lose nothing and duplicate nothing —
// the post-traffic store and an independent recovery of the logs both
// match the client's view — and the reply transcript is identical
// whichever dispatch mode served it.
func TestSnapshotDuringTraffic(t *testing.T) {
	const shards, nCmds = 2, 900
	transcripts := map[bool]string{}
	for _, workers := range []bool{false, true} {
		dir := t.TempDir()
		s := newPersistServer(t, shards, dir, "everysec", workers)

		// Compact every third chunk, concurrently with the server
		// dispatching that chunk's pipelined commands.
		transcript, want := persistScript(t, s, nCmds, func(chunk int) {
			if chunk%3 == 1 && s.beginSave() {
				s.runSave()
			}
		})
		transcripts[workers] = transcript
		if s.persist.saves.Load() == 0 {
			t.Fatal("no snapshot completed during traffic")
		}
		if s.persist.saveErrs.Load() != 0 {
			t.Fatalf("%d snapshot errors during traffic", s.persist.saveErrs.Load())
		}

		// Live view: exactly the client's expected map.
		if got := s.sys.Len(); got != len(want) {
			t.Fatalf("workers=%v: live store has %d keys, want %d", workers, got, len(want))
		}
		for k, v := range want {
			got, ok := s.sys.Get([]byte(k))
			if !ok || string(got) != v {
				t.Fatalf("workers=%v: live %s = (%q,%v), want %q", workers, k, got, ok, v)
			}
		}
		if err := s.sys.Cluster().WALErr(); err != nil {
			t.Fatal(err)
		}
		s.close()

		// Recovered view: replay the logs into a fresh system.
		sys2, err := addrkv.New(addrkv.Options{
			Keys: 2000, Shards: shards,
			Index: addrkv.IndexChainHash, Mode: addrkv.ModeSTLT, RedisLayer: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			l, rec, err := wal.OpenShard(dir, i, wal.FsyncNo)
			if err != nil {
				t.Fatal(err)
			}
			if rec.TornBytes != 0 {
				t.Fatalf("clean shutdown left %d torn bytes on shard %d", rec.TornBytes, i)
			}
			if _, err := sys2.Cluster().ApplyRecovery(i, rec); err != nil {
				t.Fatal(err)
			}
			l.Close()
		}
		if got := sys2.Len(); got != len(want) {
			t.Fatalf("workers=%v: recovery has %d keys, want %d", workers, got, len(want))
		}
		for k, v := range want {
			got, ok := sys2.Get([]byte(k))
			if !ok || string(got) != v {
				t.Fatalf("workers=%v: recovered %s = (%q,%v), want %q", workers, k, got, ok, v)
			}
		}
	}
	if transcripts[false] != transcripts[true] {
		t.Fatal("worker and mutex dispatch produced different reply transcripts under snapshot load")
	}
}

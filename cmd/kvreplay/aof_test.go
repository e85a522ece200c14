package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"addrkv/internal/wal"
)

// buildTestAOF produces the deterministic record stream committed as
// testdata/recovery.aof: snapshot-style bulk loads, timed sets and
// overwrites, deletes (one of an absent key), a FLUSHALL, rebuilding
// sets, and a torn trailing fragment (the first half of a valid frame)
// that replay must warn about and skip.
func buildTestAOF() []byte {
	var b []byte
	for i := 0; i < 40; i++ {
		b = wal.AppendFrame(b, wal.RecLoad, fmt.Appendf(nil, "warm-%02d", i), bytes.Repeat([]byte{'w'}, 32))
	}
	for i := 0; i < 60; i++ {
		b = wal.AppendFrame(b, wal.RecSet, fmt.Appendf(nil, "key-%02d", i%25), fmt.Appendf(nil, "val-%03d", i))
	}
	b = wal.AppendFrame(b, wal.RecDel, []byte("key-03"), nil)
	b = wal.AppendFrame(b, wal.RecDel, []byte("never-existed"), nil)
	b = wal.AppendFrame(b, wal.RecFlush, nil, nil)
	for i := 0; i < 20; i++ {
		b = wal.AppendFrame(b, wal.RecSet, fmt.Appendf(nil, "post-%02d", i), []byte("rebuilt"))
	}
	torn := wal.AppendFrame(nil, wal.RecSet, []byte("torn-victim"), []byte("never-acked"))
	return append(b, torn[:len(torn)/2]...)
}

// TestReplayAOFGolden replays the committed AOF through -format aof
// and compares the report byte-for-byte against the golden file; with
// -update both artifacts are rewritten.
func TestReplayAOFGolden(t *testing.T) {
	const aofFile = "testdata/recovery.aof"
	if *update {
		if err := os.WriteFile(aofFile, buildTestAOF(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if committed, err := os.ReadFile(aofFile); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(committed, buildTestAOF()) {
		t.Fatalf("%s drifted from buildTestAOF (rerun with -update)", aofFile)
	}

	cfg := testCfg()
	cfg.format = "aof"
	cfg.shards = 1
	cfg.file = aofFile
	var out strings.Builder
	if err := runAOF(cfg, nil, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	checkGolden(t, "testdata/replay_aof_golden.txt", report)

	if !strings.Contains(report, "dropped") || !strings.Contains(report, "torn trailing byte") {
		t.Fatalf("report missing torn-tail warning:\n%s", report)
	}
	// 40 loads + 60 sets + 2 dels + 1 flush + 20 sets = 123 records;
	// the torn half-frame is dropped, leaving the 20 post-flush keys.
	if !strings.Contains(report, "replayed 123 aof records (40 snapshot loads, 80 sets, 2 dels, 1 flushes); 20 keys live") {
		t.Fatalf("report summary wrong:\n%s", report)
	}
}

// TestReplayAOFDirectory: pointing -f at a multi-shard -aof-dir
// detects the shard count and replays every shard's stream.
func TestReplayAOFDirectory(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		l, rec, err := wal.OpenShard(dir, i, wal.FsyncNo)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records()) != 0 {
			t.Fatal("fresh dir not empty")
		}
		for j := 0; j < 10; j++ {
			l.Append(wal.RecSet, fmt.Appendf(nil, "s%d-k%d", i, j), []byte("v"))
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}

	cfg := testCfg()
	cfg.format = "aof"
	cfg.shards = 1 // auto-detects 2
	cfg.file = dir
	var out strings.Builder
	if err := runAOF(cfg, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed 20 aof records (0 snapshot loads, 20 sets, 0 dels, 0 flushes); 20 keys live") {
		t.Fatalf("report:\n%s", out.String())
	}

	cfg.shards = 3
	if err := runAOF(cfg, nil, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "written with 2 shard(s)") {
		t.Fatalf("shard mismatch not rejected: %v", err)
	}
}

// TestReplayAOFStdin: raw frames on stdin replay as one shard's tail.
func TestReplayAOFStdin(t *testing.T) {
	var b []byte
	b = wal.AppendFrame(b, wal.RecSet, []byte("in"), []byte("mem"))
	cfg := testCfg()
	cfg.format = "aof"
	cfg.shards = 1
	var out strings.Builder
	if err := runAOF(cfg, bytes.NewReader(b), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 keys live") {
		t.Fatalf("report:\n%s", out.String())
	}
}

package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"addrkv"
	"addrkv/internal/telemetry"
	"addrkv/internal/ycsb"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot from the current replay")

func testCfg() replayConfig {
	return replayConfig{
		mode:   "stlt",
		index:  "chainhash",
		keys:   1000,
		shards: 2,
		vsize:  64,
		warm:   500,
	}
}

// TestReplayGolden replays testdata/trace.txt and compares the -json
// snapshot byte-for-byte against the committed golden file. The
// simulation is deterministic and the snapshot carries no timestamps,
// so any diff is a real change to the modeled counters — run with
// -update to accept one deliberately.
func TestReplayGolden(t *testing.T) {
	trace, err := os.Open("testdata/trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()

	cfg := testCfg()
	cfg.jsonOut = filepath.Join(t.TempDir(), "replay.json")
	var out strings.Builder
	if err := run(cfg, trace, &out); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(cfg.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/replay_golden.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("snapshot diverged from %s (rerun with -update to accept):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// Sanity on the snapshot's shape, independent of golden bytes.
	var snap telemetry.Snapshot
	if err := json.Unmarshal(got, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Name != "replay" || len(snap.Runs) != 1 || snap.Runs[0].Ops == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if _, ok := snap.Latency["op_cycles"]; !ok {
		t.Fatal("snapshot missing op_cycles latency")
	}
	if !strings.Contains(out.String(), "replayed 2000 ops") {
		t.Fatalf("report missing op count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cluster: 2 shards") {
		t.Fatalf("report missing cluster section:\n%s", out.String())
	}
}

// TestReplayMalformedLine: a bad verb, or a verb with no argument,
// aborts with an error naming the line (main maps this to exit code 1).
func TestReplayMalformedLine(t *testing.T) {
	cfg := testCfg()
	cfg.shards = 1
	for _, bad := range []string{"FROB x", "FROB", "GET", "SCAN user00000000000000000001"} {
		in := strings.NewReader("GET user00000000000000000001\n\n" + bad + "\n")
		err := run(cfg, in, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bad trace line %q", bad)) {
			t.Errorf("%q: err = %v", bad, err)
		}
	}
}

// TestReplayScanAndRMW: the lines ycsbgen writes for workloads E (SCAN)
// and F (RMW) replay on an ordered index; on a hash index a SCAN aborts
// the replay with the index's error.
func TestReplayScanAndRMW(t *testing.T) {
	cfg := testCfg()
	cfg.index = "btree"
	k1, k2 := ycsb.KeyName(1), ycsb.KeyName(2)
	trace := fmt.Sprintf("RMW %s 96\nSCAN %s 10\nGET %s\n", k1, k2, k1)
	var out strings.Builder
	if err := run(cfg, strings.NewReader(trace), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed 3 ops (1 SETs, 0 GET misses, 10 keys scanned)") {
		t.Fatalf("report:\n%s", out.String())
	}
	cfg.index = "chainhash"
	err := run(cfg, strings.NewReader(trace), &strings.Builder{})
	if !errors.Is(err, addrkv.ErrUnordered) {
		t.Fatalf("SCAN on a hash index: err = %v", err)
	}
}

// TestReplayBadMode: an unknown mode surfaces as an error, not a
// panic.
func TestReplayBadMode(t *testing.T) {
	cfg := testCfg()
	cfg.mode = "warp-drive"
	if err := run(cfg, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestReplayWithoutJSON: the no-probe path (oc == nil) replays fine
// and reports the same op counts.
func TestReplayWithoutJSON(t *testing.T) {
	trace, err := os.Open("testdata/trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()
	cfg := testCfg()
	var out strings.Builder
	if err := run(cfg, trace, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed 2000 ops") {
		t.Fatalf("report:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"addrkv"
	"addrkv/internal/ycsb"
)

var update = flag.Bool("update", false, "rewrite the golden reports from the current replay")

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

// TestReplayGolden replays testdata/trace.txt and compares the report
// byte-for-byte against the committed golden file. The simulation is
// deterministic and the report carries no timestamps, so any diff is a
// real change to the modeled counters — run with -update to accept one
// deliberately.
func TestReplayGolden(t *testing.T) {
	trace, err := os.Open("testdata/trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()

	var out strings.Builder
	if err := run(testCfg(), trace, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/replay_golden.txt", out.String())

	// The report's shape, independent of golden bytes.
	for _, want := range []string{"replayed 2000 ops", "cluster: 2 shards", "op cycles: n=1500 "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

// checkGolden compares got with the golden file at path, rewriting the
// file first under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report diverged from %s (rerun with -update to accept):\ngot:\n%s\nwant:\n%s",
			path, got, want)
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

// TestReplayWithoutJSON: the text report is a replay's one output, and
// a second replay of the same trace prints it byte for byte — the
// property the golden files rely on.
func TestReplayWithoutJSON(t *testing.T) {
	data, err := os.ReadFile("testdata/trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	var first, second strings.Builder
	for _, out := range []*strings.Builder{&first, &second} {
		if err := run(testCfg(), bytes.NewReader(data), out); err != nil {
			t.Fatal(err)
		}
	}
	if first.String() != second.String() || !strings.Contains(first.String(), "replayed 2000 ops") {
		t.Fatalf("reports differ or lack the op count:\n%s\n---\n%s", first.String(), second.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/shard"
	"addrkv/internal/trace"
	"addrkv/internal/ycsb"
)

// writeTestBundle runs a real workload on a one-shard cluster with a
// span on every op, begun, attached and finished the way kvserve's
// front-end does, and dumps the resulting flight-recorder bundle, so
// the CLI tests exercise the same artifact shape kvserve produces.
func writeTestBundle(t *testing.T) string {
	t.Helper()
	c, err := shard.New(shard.Config{Shards: 1, Engine: kv.Config{Keys: 2000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(1, 256)
	c.Load(2000, 64)

	g := ycsb.NewGenerator(ycsb.Config{Keys: 2000, ValueSize: 64, Dist: ycsb.Zipf, Seed: 5, SetFraction: 0.2})
	var buf [ycsb.KeyLen]byte
	for i := 0; i < 4000; i++ {
		op := g.Next()
		r, name := shard.Req{Kind: shard.OpGet, Key: ycsb.KeyNameInto(buf[:], op.KeyID)}, "get"
		if op.Type == ycsb.Set {
			r.Kind, r.Value, name = shard.OpSet, ycsb.Value(op.KeyID, 1, 64), "set"
		}
		sp := tr.BeginSampled(name, r.Key)
		sp.EventRel(trace.EvDispatch, 0, 0, 0, 0)
		r.Out.Trace = sp
		c.Do(&r)
		sp.EventRel(trace.EvReplyFlush, sp.Cycles, 0, 0, 0)
		tr.Finish(sp, r.Out.Shard, r.Out.FastHit, r.Out.Missed)
	}

	dir := t.TempDir()
	d := trace.NewDumper(dir, "unit")
	path, err := d.Dump(tr, "test")
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("kvtrace %v: %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestSummaryEventsFlowsOps(t *testing.T) {
	path := writeTestBundle(t)

	out := runOut(t, "summary", path)
	for _, want := range []string{"cycles/op", "critical path: get", "critical path: set", "stlt.probe"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}

	out = runOut(t, "events", path)
	for _, want := range []string{"engine.op", "stlt.loadva", "index.walk", "mean cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("events output missing %q:\n%s", want, out)
		}
	}

	out = runOut(t, "flows", path)
	if !strings.Contains(out, "→") || !strings.Contains(out, "get: ") {
		t.Fatalf("flows output missing flow signatures:\n%s", out)
	}
	// A cold STLT run has both a hit flow and a walk flow.
	if !strings.Contains(out, "stlt.probe") {
		t.Fatalf("flows output missing probe stage:\n%s", out)
	}

	out = runOut(t, "ops", path)
	if !strings.Contains(out, "op ") || !strings.Contains(out, "Δ") {
		t.Fatalf("ops output missing timelines:\n%s", out)
	}
}

func TestChromeSubcommand(t *testing.T) {
	path := writeTestBundle(t)
	outPath := filepath.Join(t.TempDir(), "chrome.json")
	runOut(t, "chrome", "-o", outPath, path)
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome output not valid trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome output has no events")
	}
}

func TestCheckSubcommand(t *testing.T) {
	path := writeTestBundle(t)
	out := runOut(t, "check", "-min-ops", "4000", "-min-page-walks", "1", path)
	if !strings.Contains(out, "check passed") {
		t.Fatalf("check did not pass:\n%s", out)
	}

	var buf bytes.Buffer
	err := run([]string{"check", "-min-stb-hits", "99999999", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "stb.hit") {
		t.Fatalf("impossible minimum accepted (err %v)", err)
	}
}

func TestMergedBundles(t *testing.T) {
	p1, p2 := writeTestBundle(t), writeTestBundle(t)
	out := runOut(t, "check", "-min-ops", "8000", p1, p2)
	if !strings.Contains(out, "check passed") {
		t.Fatalf("merged minimum not met:\n%s", out)
	}
}

func TestBadInput(t *testing.T) {
	if err := run([]string{"summary", "/nonexistent.json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"kind":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"summary", bad}, &bytes.Buffer{}); err == nil {
		t.Fatal("invalid bundle accepted")
	}
	if err := run([]string{"frobnicate"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("no args accepted")
	}
}

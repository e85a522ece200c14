package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSamplingRate: Sampled picks exactly 1 in N against each caller's
// own counter, and nothing while the rate is 0.
func TestSamplingRate(t *testing.T) {
	tr := NewTracer(1, 8)
	if tr.Sample() != 0 {
		t.Fatalf("new tracer samples 1 in %d, want off", tr.Sample())
	}
	tr.SetSample(4)
	var a, b uint64
	n := 0
	for i := 0; i < 100; i++ {
		if tr.Sampled(&a) {
			n++
		}
	}
	if n != 25 {
		t.Fatalf("sample 1-in-4 picked %d of 100 ops", n)
	}
	// A second counter starts its own count: its 4th op is sampled.
	for i := 1; i <= 4; i++ {
		if got := tr.Sampled(&b); got != (i == 4) {
			t.Fatalf("second counter op %d sampled=%v", i, got)
		}
	}
	tr.SetSample(0)
	if tr.Sampled(&a) || a != 100 {
		t.Fatalf("sample 0 picked an op or advanced the counter (ctr %d)", a)
	}
}

func TestRingKeepsLastN(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		op := tr.BeginSampled("get", []byte("k"))
		tr.Finish(op, 0, false, false)
	}
	ops := tr.rings[0].snapshot()
	if len(ops) != 4 {
		t.Fatalf("ring kept %d, want 4", len(ops))
	}
	if ops[0].ID != 7 || ops[3].ID != 10 {
		t.Fatalf("ring window [%d..%d], want [7..10]", ops[0].ID, ops[3].ID)
	}
}

func TestRingConcurrentPush(t *testing.T) {
	tr := NewTracer(2, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				op := tr.BeginSampled("set", []byte("k"))
				op.Event(EvEngineOp, 0, 0, 0, 0)
				tr.Finish(op, i%2, false, false)
			}
		}()
	}
	wg.Wait()
	if tr.Traced() != 4000 {
		t.Fatalf("traced %d, want 4000", tr.Traced())
	}
	b := tr.Snapshot("test", "manual")
	if len(b.Ops) != 128 {
		t.Fatalf("snapshot kept %d ops, want 128", len(b.Ops))
	}
}

// newTestOp builds a span with a representative timeline.
func newTestOp(tr *Tracer) *Op {
	op := tr.BeginSampled("get", []byte("usertable-key-00042"))
	op.SetBase(1000)
	op.Event(EvEngineOp, 1000, 0, 0, 0)
	op.Event(EvLoadVA, 1002, 3, 0, 0)
	op.Event(EvSTLTProbe, 1012, 3, 1, 0xabc)
	op.Event(EvIPBCheck, 1013, 0, 77, 0)
	op.Event(EvSTBHit, 1020, 77, 4, 0)
	op.Event(EvTLBRefill, 1021, 77, 0, 0)
	op.Event(EvIndexWalk, 1100, 1, 0, 0)
	op.End(1130)
	return op
}

func TestBundleRoundTrip(t *testing.T) {
	tr := NewTracer(2, 8)
	op := newTestOp(tr)
	tr.Finish(op, 1, true, false)

	b := tr.Snapshot("unit", "manual")
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 1 || got.Ops[0].Name != "get" || got.Ops[0].Cycles != 130 {
		t.Fatalf("round-trip op = %+v", got.Ops[0])
	}
	if got.Ops[0].Events[2].Kind != EvSTLTProbe || got.Ops[0].Events[2].Cycles != 12 {
		t.Fatalf("round-trip event = %+v", got.Ops[0].Events[2])
	}
	if got.EventCounts["stb.hit"] != 1 {
		t.Fatalf("event counts = %v", got.EventCounts)
	}
	if !strings.Contains(string(data), `"kind": "stlt.probe"`) {
		t.Fatalf("event kinds should serialize as names:\n%s", data)
	}
}

func TestParseBundleRejectsBadInput(t *testing.T) {
	cases := []string{
		`{}`,
		`{"version":99,"kind":"trace-bundle"}`,
		`{"version":1,"kind":"nope"}`,
		`{"version":1,"kind":"trace-bundle","ops":[null]}`,
		`{"version":1,"kind":"trace-bundle","ops":[{"id":1}]}`,
		`{"version":1,"kind":"trace-bundle","ops":[{"id":1,"op":"get","events":[{"kind":"bogus"}]}]}`,
		`{"version":1,"kind":"trace-bundle","ops":[{"id":1,"op":"get","events":[{"kind":3}]}]}`,
		`{"version":1,"kind":"trace-bundle","ops":[{"id":1,"op":"get","wall_ns":-5}]}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ParseBundle([]byte(c)); err == nil {
			t.Errorf("ParseBundle accepted %q", c)
		}
	}
}

func TestAnomalyTriggers(t *testing.T) {
	tr := NewTracer(1, 8)
	dumped := make(chan string, 8)
	tr.SetDumpFunc(func(reason string) { dumped <- reason })

	// Page walk while cold: no trigger.
	op := tr.BeginSampled("get", []byte("k"))
	op.SetBase(0)
	op.Event(EvPageWalk, 10, 4, 0, 0)
	op.End(20)
	tr.Finish(op, 0, false, false)

	// Page walk while warm: trigger.
	tr.SetWarm(true)
	op = tr.BeginSampled("get", []byte("k"))
	op.SetBase(0)
	op.Event(EvPageWalk, 10, 4, 0, 0)
	op.End(20)
	tr.Finish(op, 0, false, false)
	if got := <-dumped; got != "page_walk_warm" {
		t.Fatalf("anomaly = %q, want page_walk_warm", got)
	}

	// Server-side trigger with no op.
	tr.NoteAnomaly("maxconns_shed")
	if got := <-dumped; got != "maxconns_shed" {
		t.Fatalf("anomaly = %q, want maxconns_shed", got)
	}
	if tr.AnomalyCount() != 2 {
		t.Fatalf("anomaly count = %d, want 2", tr.AnomalyCount())
	}
}

func TestDumperWritesParsableBundles(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer(1, 8)
	op := newTestOp(tr)
	tr.Finish(op, 0, true, false)
	d := NewDumper(dir, "kvserve")
	path, err := d.Dump(tr, "manual/../evil reason")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump escaped directory: %s", path)
	}
	b, err := ParseBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Traced != 1 || len(b.Ops) != 1 {
		t.Fatalf("dumped bundle traced=%d ops=%d", b.Traced, len(b.Ops))
	}
}

// TestChromeTraceSchema pins the trace_event JSON contract Perfetto
// requires: a traceEvents array whose entries all carry name/ph/ts and
// pid/tid, with "X" events carrying a non-negative dur.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer(2, 8)
	op := newTestOp(tr)
	tr.Finish(op, 1, true, false)
	op2 := tr.BeginSampled("set", []byte("other"))
	op2.SetBase(5000)
	op2.Event(EvEngineOp, 5000, 0, 0, 0)
	op2.Event(EvPageWalk, 5100, 4, 80, 0)
	op2.End(5150)
	tr.Finish(op2, 0, false, false)

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, tr.Snapshot("unit", "manual")); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	names := map[string]bool{}
	for i, e := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, e)
			}
		}
		ph := e["ph"].(string)
		if ph != "X" && ph != "M" {
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
		if ph == "X" {
			ts, dur := e["ts"].(float64), e["dur"].(float64)
			if ts < 0 || dur <= 0 {
				t.Fatalf("event %d ts=%v dur=%v", i, ts, dur)
			}
		}
		names[e["name"].(string)] = true
	}
	for _, want := range []string{"get", "set", "stlt.probe", "page.walk"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q slice (have %v)", want, names)
		}
	}
}

func TestBundleMerge(t *testing.T) {
	mk := func(start int64) *Bundle {
		tr := NewTracer(1, 4)
		op := tr.BeginSampled("get", []byte("k"))
		op.StartUnixNS = start
		tr.Finish(op, 0, false, false)
		return tr.Snapshot("m", "manual")
	}
	a, b := mk(200), mk(100)
	a.Merge(b)
	if a.Traced != 2 || len(a.Ops) != 2 {
		t.Fatalf("merge traced=%d ops=%d", a.Traced, len(a.Ops))
	}
	if a.Ops[0].StartUnixNS != 100 {
		t.Fatal("merge did not sort ops by start time")
	}
}

func TestOpWallClock(t *testing.T) {
	tr := NewTracer(1, 4)
	op := tr.BeginSampled("get", []byte("k"))
	time.Sleep(time.Millisecond)
	op.Event(EvEngineOp, 0, 0, 0, 0)
	tr.Finish(op, 0, false, false)
	if op.Events[0].WallNS <= 0 || op.WallNS < op.Events[0].WallNS {
		t.Fatalf("wall stamps event=%d op=%d", op.Events[0].WallNS, op.WallNS)
	}
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }

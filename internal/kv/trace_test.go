package kv

import (
	"bytes"
	"testing"

	"addrkv/internal/trace"
	"addrkv/internal/ycsb"
)

// runTraced runs op on e under a span the caller begins and finishes,
// the way the shard layer runs a front-end span: anchor, attach, op,
// end, detach, Finish with the outcome read off the probe delta.
func runTraced(tr *trace.Tracer, e *Engine, name string, key []byte, op func()) {
	sp := tr.BeginSampled(name, key)
	before := e.Probe()
	sp.SetBase(uint64(e.M.Cycles()))
	e.AttachTrace(sp)
	op()
	sp.End(uint64(e.M.Cycles()))
	e.DetachTrace()
	after := e.Probe()
	tr.Finish(sp, 0, after.FastHits > before.FastHits, after.Misses > before.Misses)
}

// TestTracedEngineMatchesUntraced: an engine with a span attached to
// every op must produce bit-for-bit identical replies and modeled
// cycles to an untraced one — trace hooks read counters, never charge
// cycles — and stamp engine.op once per op.
func TestTracedEngineMatchesUntraced(t *testing.T) {
	cfg := Config{Keys: 4000, Index: KindChainHash, Mode: ModeSTLT, Seed: 42}
	const loadN, nOps = 4000, 8000

	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(1, 64)

	plain.Load(loadN, 64)
	traced.Load(loadN, 64)
	plain.MarkMeasurement()
	traced.MarkMeasurement()

	gcfg := ycsb.Config{Keys: loadN, ValueSize: 64, Dist: ycsb.Zipf, Seed: 11, SetFraction: 0.1}
	gp, gt := ycsb.NewGenerator(gcfg), ycsb.NewGenerator(gcfg)
	var bufP, bufT [ycsb.KeyLen]byte
	for i := 0; i < nOps; i++ {
		opP, opT := gp.Next(), gt.Next()
		keyP := ycsb.KeyNameInto(bufP[:], opP.KeyID)
		keyT := ycsb.KeyNameInto(bufT[:], opT.KeyID)
		if opP.Type == ycsb.Set {
			plain.Set(keyP, ycsb.Value(opP.KeyID, 1, 64))
			runTraced(tr, traced, "set", keyT, func() { traced.Set(keyT, ycsb.Value(opT.KeyID, 1, 64)) })
		} else {
			vp, okP := plain.GetInto(keyP, nil)
			var vt []byte
			var okT bool
			runTraced(tr, traced, "get", keyT, func() { vt, okT = traced.GetInto(keyT, nil) })
			if okP != okT || !bytes.Equal(vp, vt) {
				t.Fatalf("op %d: replies diverged (ok %v/%v)", i, okP, okT)
			}
		}
	}

	want, got := plain.Stats(), traced.Stats()
	if got != want {
		t.Fatalf("traced engine diverged from untraced:\ntraced: %+v\nplain:  %+v", got, want)
	}
	if tr.Traced() != nOps {
		t.Fatalf("tracer recorded %d ops, want %d", tr.Traced(), nOps)
	}

	counts := tr.EventCounts()
	if counts["engine.op"] != nOps {
		t.Fatalf("engine.op events = %d, want %d (counts %v)", counts["engine.op"], nOps, counts)
	}
	for _, k := range []string{"stlt.loadva", "stlt.probe", "index.walk"} {
		if counts[k] == 0 {
			t.Fatalf("no %q events recorded (counts %v)", k, counts)
		}
	}

	// Retained spans must be internally consistent: monotone relative
	// cycle stamps bounded by the op total.
	b := tr.Snapshot("unit", "manual")
	if len(b.Ops) == 0 {
		t.Fatal("flight recorder retained no ops")
	}
	for _, op := range b.Ops {
		prev := uint64(0)
		for _, e := range op.Events {
			if e.Cycles < prev {
				t.Fatalf("op %d: non-monotone cycle stamps %+v", op.ID, op.Events)
			}
			if e.Cycles > op.Cycles {
				t.Fatalf("op %d: event stamp %d beyond op total %d", op.ID, e.Cycles, op.Cycles)
			}
			prev = e.Cycles
		}
	}
}

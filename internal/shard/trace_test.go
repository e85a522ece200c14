package shard

import (
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/trace"
	"addrkv/internal/ycsb"
)

// TestTracedOpsMatchUntraced is the tracing analogue of
// TestObservedOpsMatchUnobserved: a run where EVERY op carries a
// front-end span (100% sampling, attached via OpOutcome.Trace) must
// leave the cluster bit-for-bit identical to an untraced run, and the
// spans must agree with the outcome's probe-diffed cycle counts.
func TestTracedOpsMatchUntraced(t *testing.T) {
	cfg := kv.Config{Keys: 6000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	const loadN, nOps = 6000, 12000

	plain, err := New(Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	plain.Load(loadN, 64)
	traced.Load(loadN, 64)
	plain.MarkMeasurement()
	traced.MarkMeasurement()

	tr := trace.NewTracer(2, 64, 1)

	gcfg := ycsb.Config{Keys: loadN, ValueSize: 64, Dist: ycsb.Zipf, Seed: 9, SetFraction: 0.1}
	gp, gt := ycsb.NewGenerator(gcfg), ycsb.NewGenerator(gcfg)
	var bufP, bufT [ycsb.KeyLen]byte
	for i := 0; i < nOps; i++ {
		opP, opT := gp.Next(), gt.Next()
		keyP := ycsb.KeyNameInto(bufP[:], opP.KeyID)
		keyT := ycsb.KeyNameInto(bufT[:], opT.KeyID)

		// Front-end span lifecycle, exactly as kvserve runs it:
		// dispatch → attach via outcome → reply.flush → finish.
		var oc OpOutcome
		name := "get"
		if opT.Type == ycsb.Set {
			name = "set"
		}
		sp := tr.Begin(name, keyT)
		if sp == nil {
			t.Fatalf("op %d: 100%% sampling returned no span", i)
		}
		sp.EventRel(trace.EvDispatch, 0, 0, 0, 0)
		req := Req{Kind: OpGetTouch, Key: keyT, Out: OpOutcome{Trace: sp}}

		if opT.Type == ycsb.Set {
			plain.Set(keyP, ycsb.Value(opP.KeyID, 1, 64))
			req.Kind, req.Value = OpSet, ycsb.Value(opT.KeyID, 1, 64)
		} else {
			plain.GetTouch(keyP)
		}
		traced.Do(&req)
		oc = req.Out

		sp.EventRel(trace.EvReplyFlush, sp.Cycles, 0, 0, 0)
		tr.Finish(sp, oc.Shard, oc.FastHit, oc.Missed)

		if sp.Cycles != oc.Cycles {
			t.Fatalf("op %d: span cycles %d != outcome cycles %d", i, sp.Cycles, oc.Cycles)
		}
		if !sp.Has(trace.EvShardLock) || !sp.Has(trace.EvEngineOp) {
			t.Fatalf("op %d: span missing shard.lock/engine.op: %+v", i, sp.Events)
		}
	}

	want, got := plain.Stats(), traced.Stats()
	if got.Agg != want.Agg {
		t.Fatalf("traced cluster diverged from untraced:\ntraced: %+v\nplain:  %+v", got.Agg, want.Agg)
	}
	if tr.Traced() != nOps {
		t.Fatalf("tracer recorded %d ops, want %d", tr.Traced(), nOps)
	}
	counts := tr.EventCounts()
	if counts["dispatch"] != nOps || counts["reply.flush"] != nOps || counts["shard.lock"] != nOps {
		t.Fatalf("front-end event counts off: %v", counts)
	}
	// A cold-start STLT run must show translation traffic in the spans.
	for _, k := range []string{"stlt.probe", "page.walk", "tlb.refill"} {
		if counts[k] == 0 {
			t.Fatalf("no %q events over %d traced ops (counts %v)", k, nOps, counts)
		}
	}
	// With 100% sampling every translation event lands in some span, so
	// event totals must equal the machines' own counters exactly.
	if counts["page.walk"] != got.Agg.Machine.PageWalks {
		t.Fatalf("page.walk events %d != machine walks %d", counts["page.walk"], got.Agg.Machine.PageWalks)
	}
	if counts["stb.hit"] != got.Agg.Machine.STBHits {
		t.Fatalf("stb.hit events %d != machine STB hits %d", counts["stb.hit"], got.Agg.Machine.STBHits)
	}
	if counts["stb.hit"]+counts["stb.miss"] != got.Agg.Machine.TLBMisses {
		t.Fatalf("stb events %d+%d != full TLB misses %d",
			counts["stb.hit"], counts["stb.miss"], got.Agg.Machine.TLBMisses)
	}

	// Spans filed under the shard that served them.
	b := tr.Snapshot("unit", "manual")
	for _, op := range b.Ops {
		for _, e := range op.Events {
			if e.Kind == trace.EvShardLock && int(e.A) != op.Shard {
				t.Fatalf("op %d filed under shard %d but locked shard %d", op.ID, op.Shard, e.A)
			}
		}
	}
}

// TestClusterSetTracerSamplesEngineOps: with no front-end span, the
// engines' own tracer (installed cluster-wide) samples ops and files
// them under the serving shard's ring.
func TestClusterSetTracerSamplesEngineOps(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{Keys: 1000, Index: kv.KindChainHash, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(1000, 64)
	tr := trace.NewTracer(2, 16, 1)
	c.SetTracer(tr)

	var buf [ycsb.KeyLen]byte
	for id := uint64(0); id < 200; id++ {
		c.GetTouch(ycsb.KeyNameInto(buf[:], id))
	}
	if tr.Traced() != 200 {
		t.Fatalf("traced %d ops, want 200", tr.Traced())
	}
	b := tr.Snapshot("unit", "manual")
	shards := map[int]int{}
	for _, op := range b.Ops {
		shards[op.Shard]++
	}
	if shards[0] == 0 || shards[1] == 0 {
		t.Fatalf("expected spans on both shards, got %v", shards)
	}
}

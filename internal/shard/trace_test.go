package shard

import (
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/trace"
	"addrkv/internal/wal"
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

	tr := trace.NewTracer(2, 64)

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
		sp := tr.BeginSampled(name, keyT)
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

// TestWALCommitStampsTracedOps: walCommit is the one barrier, in place
// and from a worker's drain. Under the always policy a traced write
// carries wal.append and then wal.fsync, whose B is the records the
// barrier covered; a read that wrote no frame waits on no barrier and
// carries neither.
func TestWALCommitStampsTracedOps(t *testing.T) {
	for _, workers := range []bool{false, true} {
		c, err := New(Config{Shards: 1, Engine: durTestCfg})
		if err != nil {
			t.Fatal(err)
		}
		logs, _ := openLogs(t, t.TempDir(), 1, wal.FsyncAlways)
		if err := c.AttachWAL(logs); err != nil {
			t.Fatal(err)
		}
		if workers {
			if err := c.StartWorkers(0); err != nil {
				t.Fatal(err)
			}
		}
		tr := trace.NewTracer(1, 8)
		run := func(kind OpKind, name string) *trace.Op {
			req := NewReq()
			req.Kind, req.Key, req.Value = kind, []byte("k"), []byte("v")
			req.Out.Trace = tr.BeginSampled(name, req.Key)
			c.Enqueue(req) // one producer, waiting: a burst of one
			req.Wait()
			return req.Out.Trace
		}
		set, get := run(OpSet, "set"), run(OpGet, "get")
		c.StopWorkers()
		if err := c.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		var fsync *trace.Event
		for i, e := range set.Events {
			if e.Kind == trace.EvWALFsync {
				fsync = &set.Events[i]
			}
		}
		if !set.Has(trace.EvWALAppend) || fsync == nil || fsync.B != 1 {
			t.Fatalf("workers=%v: traced SET lacks wal.append or a wal.fsync covering 1 record: %+v", workers, set.Events)
		}
		if get.Has(trace.EvWALAppend) || get.Has(trace.EvWALFsync) {
			t.Fatalf("workers=%v: traced GET waited on a barrier: %+v", workers, get.Events)
		}
	}
}

package shard

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/trace"
	"addrkv/internal/wal"
	"addrkv/internal/ycsb"
)

// --- ring ---

func TestRingFIFOAndWrap(t *testing.T) {
	q := newRing(4)
	if q.dequeue() != nil {
		t.Fatal("dequeue on empty ring should return nil")
	}
	reqs := make([]*Req, 10)
	for i := range reqs {
		reqs[i] = NewReq()
	}
	// Several laps around a 4-slot ring, checking FIFO order.
	next := 0
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < 4; i++ {
			if !q.enqueue(reqs[(lap*4+i)%len(reqs)]) {
				t.Fatalf("lap %d: enqueue %d on non-full ring failed", lap, i)
			}
		}
		if q.enqueue(reqs[0]) {
			t.Fatalf("lap %d: enqueue on full ring succeeded", lap)
		}
		if d := q.depth(); d != 4 {
			t.Fatalf("lap %d: depth = %d, want 4", lap, d)
		}
		for i := 0; i < 4; i++ {
			got := q.dequeue()
			want := reqs[next%len(reqs)]
			next++
			if got != want {
				t.Fatalf("lap %d: dequeue %d returned wrong request", lap, i)
			}
		}
	}
	if q.dequeue() != nil {
		t.Fatal("drained ring should dequeue nil")
	}
}

func TestRingCapacityRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {4096, 4096}, {5000, 8192},
	} {
		if q := newRing(tc.in); len(q.slots) != tc.want {
			t.Errorf("newRing(%d): %d slots, want %d", tc.in, len(q.slots), tc.want)
		}
	}
}

func TestRingConcurrentProducers(t *testing.T) {
	q := newRing(64)
	const producers, perProducer = 8, 2000
	var wg sync.WaitGroup
	seen := make(chan *Req, producers*perProducer)
	done := make(chan struct{})
	go func() { // single consumer
		defer close(done)
		for n := 0; n < producers*perProducer; {
			if r := q.dequeue(); r != nil {
				seen <- r
				n++
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r := NewReq()
				for !q.enqueue(r) {
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if len(seen) != producers*perProducer {
		t.Fatalf("consumed %d requests, want %d", len(seen), producers*perProducer)
	}
	// No duplicates.
	uniq := map[*Req]bool{}
	for len(seen) > 0 {
		r := <-seen
		if uniq[r] {
			t.Fatal("request dequeued twice")
		}
		uniq[r] = true
	}
}

// --- worker runtime ---

func workloadOps(n int) []ycsb.Op {
	g := ycsb.NewGenerator(ycsb.Config{
		Keys: 4000, ValueSize: 64, Dist: ycsb.Zipf, Seed: 9, SetFraction: 0.2,
	})
	ops := make([]ycsb.Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// TestWorkerMatchesMutexSequential: the tentpole determinism pin. A
// single producer submitting ops one at a time through the worker
// runtime must produce bit-for-bit the same results, per-op outcomes,
// engine stats and WAL bytes as Do, the in-place reference, on an
// identically configured cluster — for 1 shard (where it also equals
// the seed engine, via TestOneShardMatchesSingleEngine) and for
// several, over every OpKind, with a clock that moves so reads reap
// lazily and log it. A third cluster takes the same stream through
// Enqueue with no worker set running: it must complete every request
// in place and match too.
func TestWorkerMatchesMutexSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Shards: shards, Engine: kv.Config{
				Keys: 4000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42, RedisLayer: true,
			}}
			now := int64(1_000_000)
			// do (Do), ring (workers up), idle (Enqueue, workers never started)
			var cs [3]*Cluster
			var dirs [3]string
			for i := range cs {
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				c.SetClock(func() int64 { return now })
				c.Load(4000, 64)
				dirs[i] = t.TempDir()
				logs, _ := openLogs(t, dirs[i], shards, wal.FsyncEverySec)
				if err := c.AttachWAL(logs); err != nil {
					t.Fatal(err)
				}
				cs[i] = c
			}
			if err := cs[1].StartWorkers(64); err != nil {
				t.Fatal(err)
			}

			var rs [3]*Req
			for i := range rs {
				rs[i] = NewReq()
			}
			var kbuf [ycsb.KeyLen]byte
			for oi, op := range workloadOps(6000) {
				want := Req{Key: ycsb.KeyNameInto(kbuf[:], op.KeyID)}
				switch {
				case oi%13 == 3:
					want.Kind = OpDelete
				case oi%13 == 5:
					want.Kind = OpExists
				case oi%13 == 7:
					want.Kind = OpGetTouch
				case oi%13 == 9:
					want.Kind, want.Deadline = OpExpireAt, now+int64(oi%700)
				case oi%13 == 11:
					want.Kind = OpTTL
				case op.Type == ycsb.Set:
					want.Kind, want.Value = OpSet, ycsb.Value(op.KeyID, 1, 64)
				default:
					want.Kind = OpGet
				}
				now += 3 // armed deadlines come due: reads reap and log it
				for i, c := range cs {
					r := rs[i]
					r.Kind, r.Key, r.Value, r.Deadline = want.Kind, want.Key, want.Value, want.Deadline
					r.Out = OpOutcome{Shard: -1}
					if i == 0 {
						c.Do(r)
						continue
					}
					c.Enqueue(r)
					r.Wait()
					d := rs[0]
					if r.OK != d.OK || r.N != d.N || (r.Kind == OpGet && !bytes.Equal(r.Val, d.Val)) {
						t.Fatalf("op %d (kind %d) leg %d: result (%q,%v,%d), Do has (%q,%v,%d)",
							oi, r.Kind, i, r.Val, r.OK, r.N, d.Val, d.OK, d.N)
					}
					if r.Out != d.Out {
						t.Fatalf("op %d (kind %d) leg %d: outcome diverged:\ngot: %+v\nDo:  %+v", oi, r.Kind, i, r.Out, d.Out)
					}
				}
			}
			cs[1].StopWorkers()
			want := cs[0].Stats()
			if want.Agg.Expired == 0 {
				t.Fatal("stream never expired a key: the lazy-expiry frames went untested")
			}
			for i, c := range cs {
				if err := c.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					continue
				}
				if got := c.Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("leg %d stats diverged:\ngot: %+v\nDo:  %+v", i, got.Agg, want.Agg)
				}
				for sh := 0; sh < shards; sh++ {
					name := fmt.Sprintf("/shard-%d.aof.1", sh)
					w, err := os.ReadFile(dirs[0] + name)
					if err != nil {
						t.Fatal(err)
					}
					g, err := os.ReadFile(dirs[i] + name)
					if err != nil {
						t.Fatal(err)
					}
					if len(w) == 0 || !bytes.Equal(g, w) {
						t.Fatalf("leg %d shard %d: log (%d B) differs from Do's (%d B)", i, sh, len(g), len(w))
					}
				}
			}
		})
	}
}

// TestWorkerConcurrentProducersExact: N producer goroutines (the
// cross-connection case) firing disjoint key ranges through the
// worker runtime. Totals must be exact, every reply correct, and the
// drained-op counters must account for every request.
func TestWorkerConcurrentProducersExact(t *testing.T) {
	c, err := New(Config{Shards: 4, Engine: kv.Config{
		Keys: 8000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 1, RedisLayer: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartWorkers(128); err != nil {
		t.Fatal(err)
	}
	defer c.StopWorkers()

	const producers, perProducer = 8, 1500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			req := NewReq()
			for i := 0; i < perProducer; i++ {
				id := uint64(p*perProducer + i)
				key := []byte(fmt.Sprintf("user%016d", id))
				req.Kind = OpSet
				req.Key = key
				req.Value = ycsb.Value(id, 0, 32)
				req.Out = OpOutcome{Shard: -1}
				c.Enqueue(req)
				req.Wait()
				req.Kind = OpGet
				req.Out = OpOutcome{Shard: -1}
				c.Enqueue(req)
				req.Wait()
				if !req.OK || !bytes.Equal(req.Val, ycsb.Value(id, 0, 32)) {
					t.Errorf("producer %d: GET %q after SET returned (%q, %v)", p, key, req.Val, req.OK)
					return
				}
				if req.Out.Shard != c.ShardFor(key) {
					t.Errorf("outcome shard %d, want %d", req.Out.Shard, c.ShardFor(key))
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if got, want := c.Len(), producers*perProducer; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	var drained, totalOps uint64
	for _, ws := range c.RuntimeStats() {
		drained += ws.DrainedOps
		totalOps += ws.Drains
	}
	if want := uint64(2 * producers * perProducer); drained != want {
		t.Fatalf("drained ops = %d, want %d", drained, want)
	}
	if totalOps > drained {
		t.Fatalf("drains (%d) exceed drained ops (%d)", totalOps, drained)
	}
}

// TestWorkerStopDrainsQueue: requests already enqueued when
// StopWorkers is called still complete.
func TestWorkerStopDrainsQueue(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{
		Keys: 100, Index: kv.KindChainHash, Mode: kv.ModeSTLT, RedisLayer: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartWorkers(16); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*Req, 8)
	for i := range reqs {
		reqs[i] = NewReq()
		reqs[i].Kind = OpSet
		reqs[i].Key = []byte(fmt.Sprintf("k%d", i))
		reqs[i].Value = []byte("v")
		c.Enqueue(reqs[i])
	}
	c.StopWorkers()
	for i, r := range reqs {
		r.Wait() // must not hang
		if !r.OK {
			t.Fatalf("request %d not completed", i)
		}
	}
	if c.wset.Load() != nil {
		t.Fatal("worker set still installed after StopWorkers")
	}
	// Restart works.
	if err := c.StartWorkers(16); err != nil {
		t.Fatal(err)
	}
	c.StopWorkers()
}

// TestWorkerTraceEvents: a traced request picks up queue.wait + drain
// events plus the usual shard-lock/engine timeline, and tracing stays
// read-only (outcome equals an untraced twin's).
func TestWorkerTraceEvents(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{
		Keys: 1000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, RedisLayer: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(1000, 64)
	if err := c.StartWorkers(16); err != nil {
		t.Fatal(err)
	}
	defer c.StopWorkers()
	tr := trace.NewTracer(2, 8)
	sp := tr.BeginSampled("get", []byte("user0000000000000001"))
	req := NewReq()
	req.Kind = OpGet
	req.Key = []byte(ycsb.KeyName(1))
	req.Out = OpOutcome{Shard: -1, Trace: sp}
	c.Enqueue(req)
	req.Wait()
	tr.Finish(sp, req.Out.Shard, req.Out.FastHit, req.Out.Missed)
	for _, k := range []trace.EventKind{trace.EvQueueWait, trace.EvDrain, trace.EvShardLock, trace.EvEngineOp} {
		if !sp.Has(k) {
			t.Errorf("traced worker op missing %v event; got %+v", k, sp.Events)
		}
	}
}

// TestEnqueueWaitZeroAlloc pins the enqueue/dequeue path's allocation
// budget: a steady-state producer reusing one Req must not allocate.
// (The worker goroutine itself is also on the measured path, since
// AllocsPerRun counts mallocs globally.)
func TestEnqueueWaitZeroAlloc(t *testing.T) {
	c, err := New(Config{Shards: 2, Engine: kv.Config{
		Keys: 2000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, RedisLayer: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(2000, 64)
	if err := c.StartWorkers(64); err != nil {
		t.Fatal(err)
	}
	defer c.StopWorkers()
	req := NewReq()
	key := []byte(ycsb.KeyName(7))
	// Warm: the Val buffer reaches its steady-state capacity.
	for i := 0; i < 100; i++ {
		req.Kind = OpGet
		req.Key = key
		req.Out = OpOutcome{Shard: -1}
		c.Enqueue(req)
		req.Wait()
	}
	if !req.OK {
		t.Fatal("warmup GET missed")
	}
	if n := testing.AllocsPerRun(2000, func() {
		req.Kind = OpGet
		req.Key = key
		req.Out = OpOutcome{Shard: -1}
		c.Enqueue(req)
		req.Wait()
	}); n != 0 {
		t.Errorf("enqueue/wait GET path: %.1f allocs/op, budget 0", n)
	}
	val := make([]byte, 64)
	if n := testing.AllocsPerRun(2000, func() {
		req.Kind = OpSet
		req.Key = key
		req.Value = val
		req.Out = OpOutcome{Shard: -1}
		c.Enqueue(req)
		req.Wait()
	}); n != 0 {
		t.Errorf("enqueue/wait SET path: %.1f allocs/op, budget 0", n)
	}
}

// --- ShardFor mask routing ---

// TestShardForMaskMatchesModulo: for power-of-two shard counts the
// mask route must agree with the modulo it replaces; non-power-of-two
// counts keep the modulo. Also pins that routing is independent of
// the dispatch mode (same cluster config → same ShardFor).
func TestShardForMaskMatchesModulo(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8, 16} {
		c, err := New(Config{Shards: n, Engine: kv.Config{
			Keys: 100 * n, Index: kv.KindChainHash, Mode: kv.ModeBaseline,
		}})
		if err != nil {
			t.Fatal(err)
		}
		wantMask := uint64(0)
		if n&(n-1) == 0 {
			wantMask = uint64(n - 1)
		}
		if c.mask != wantMask {
			t.Fatalf("shards=%d: mask = %#x, want %#x", n, c.mask, wantMask)
		}
		for id := uint64(0); id < 5000; id++ {
			key := []byte(ycsb.KeyName(id))
			want := int(c.route.Hash(key, RouteSeed) % uint64(n))
			if got := c.ShardFor(key); got != want {
				t.Fatalf("shards=%d key %s: ShardFor = %d, want %d", n, key, got, want)
			}
		}
	}
}

func BenchmarkShardFor(b *testing.B) {
	for _, n := range []int{7, 8} {
		name := "mod"
		if n&(n-1) == 0 {
			name = "mask"
		}
		b.Run(fmt.Sprintf("%s-shards%d", name, n), func(b *testing.B) {
			c, err := New(Config{Shards: n, Engine: kv.Config{
				Keys: 100 * n, Index: kv.KindChainHash, Mode: kv.ModeBaseline,
			}})
			if err != nil {
				b.Fatal(err)
			}
			key := []byte(ycsb.KeyName(12345))
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += c.ShardFor(key)
			}
			_ = sink
		})
	}
}

// BenchmarkDispatch compares the mutex path against the worker
// runtime under parallel producers — the contention case the worker
// runtime exists for.
func BenchmarkDispatch(b *testing.B) {
	newCluster := func(b *testing.B) *Cluster {
		c, err := New(Config{Shards: 4, Engine: kv.Config{
			Keys: 8000, Index: kv.KindChainHash, Mode: kv.ModeSTLT, RedisLayer: true,
		}})
		if err != nil {
			b.Fatal(err)
		}
		c.Load(8000, 64)
		return c
	}
	b.Run("mutex", func(b *testing.B) {
		c := newCluster(b)
		b.RunParallel(func(pb *testing.PB) {
			var out OpOutcome
			var kbuf [ycsb.KeyLen]byte
			id := uint64(0)
			for pb.Next() {
				key := ycsb.KeyNameInto(kbuf[:], id%8000)
				c.GetO(key, &out)
				id++
			}
		})
	})
	b.Run("worker", func(b *testing.B) {
		c := newCluster(b)
		if err := c.StartWorkers(0); err != nil {
			b.Fatal(err)
		}
		defer c.StopWorkers()
		b.RunParallel(func(pb *testing.PB) {
			req := NewReq()
			var kbuf [ycsb.KeyLen]byte
			id := uint64(0)
			for pb.Next() {
				req.Kind = OpGet
				req.Key = ycsb.KeyNameInto(kbuf[:], id%8000)
				req.Out = OpOutcome{Shard: -1}
				c.Enqueue(req)
				req.Wait()
				id++
			}
		})
	})
}

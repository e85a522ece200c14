// Per-shard worker runtime: one owning goroutine per shard draining a
// bounded MPSC request ring. Connection goroutines become pure
// parsers/routers — they enqueue ops and wait on per-request
// completion channels — and because the worker drains whole bursts,
// ops from *different connections* to the same shard coalesce into
// one shard-lock critical section per drain (cross-connection
// batching), with probe snapshots chained across the burst (op N's
// after-probe is op N+1's before-probe) so observation cost halves.
//
// This is the software analog of LaKe's hardware scheduler feeding
// shared-nothing processing elements: admission (the ring) is
// decoupled from execution (the worker), each engine has exactly one
// owner, and batching happens at admission rather than per caller.
//
// Determinism contract: the worker executes its shard's ring in FIFO
// order, and each connection enqueues in command order, so a single
// connection's ops execute in submission order on every shard. With
// one shard and one connection the engine therefore sees the same
// call sequence Do, op by op, would issue — modeled cycles, stats
// and replies are bit-for-bit identical (pinned by differential
// tests). The per-op sequence itself is shared (exec, in shard.go);
// what the differentials hold apart is everything around it: lock per
// op vs per burst, exact vs chained probes, per-op commit vs group
// commit, the drain sweep, the ring, and completion order.
package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// DefaultQueueCap is the per-shard ring capacity StartWorkers uses
// when the caller passes 0.
const DefaultQueueCap = 4096

// worker owns one shard's ring and drain loop.
type worker struct {
	q      *ring
	wake   chan struct{}
	parked atomic.Bool

	drains     atomic.Uint64
	drainedOps atomic.Uint64
	maxBurst   atomic.Uint64
	fullSpins  atomic.Uint64
}

// kick unparks the worker if it is (or is about to be) sleeping.
// Pairing the CAS with a buffered non-blocking send makes the wakeup
// at-most-once per park without ever blocking a producer.
func (w *worker) kick() {
	if w.parked.CompareAndSwap(true, false) {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// WorkerStats is one shard worker's counters (see RuntimeStats).
type WorkerStats struct {
	// Depth is the current (approximate) queued request count.
	Depth int
	// Drains counts drain bursts; DrainedOps the requests inside them,
	// so DrainedOps/Drains is the mean cross-connection batch size.
	Drains     uint64
	DrainedOps uint64
	// MaxBurst is the largest single drain.
	MaxBurst uint64
	// FullSpins counts producer yields on a full ring (backpressure).
	FullSpins uint64
}

// workerSet is one generation of the runtime: the per-shard workers
// plus the stop channel their drain loops select on.
type workerSet struct {
	ws     []*worker
	stopCh chan struct{}
}

// StartWorkers launches one owning goroutine per shard, each draining
// a bounded ring of queueCap requests (0 = DefaultQueueCap, rounded
// up to a power of two). After StartWorkers, Enqueue routes requests
// over the rings; Do, DoBatch and the scan calls remain safe
// concurrently (workers hold the same shard locks while draining).
func (c *Cluster) StartWorkers(queueCap int) error {
	if c.wset.Load() != nil {
		return fmt.Errorf("shard: workers already running")
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	set := &workerSet{
		ws:     make([]*worker, len(c.shards)),
		stopCh: make(chan struct{}),
	}
	for i := range set.ws {
		set.ws[i] = &worker{q: newRing(queueCap), wake: make(chan struct{}, 1)}
	}
	c.wset.Store(set)
	c.wwg.Add(len(set.ws))
	for i := range set.ws {
		go c.runWorker(set, i)
	}
	return nil
}

// StopWorkers stops the runtime: each worker drains its ring to empty
// (completing every request already enqueued) and exits. Callers must
// stop producing before calling — an Enqueue racing StopWorkers may
// hang its Wait.
func (c *Cluster) StopWorkers() {
	set := c.wset.Swap(nil)
	if set == nil {
		return
	}
	close(set.stopCh)
	for _, w := range set.ws {
		w.parked.Store(false) // suppress further parking
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	c.wwg.Wait()
}

// SetSweepLimit sets how many armed TTL deadlines each worker examines
// per drain burst (0 disables the drain-loop sweep). Set before
// StartWorkers. A shard with no traffic drains nothing, so callers
// that must reap on an idle shard also tick Cluster.SweepExpired.
func (c *Cluster) SetSweepLimit(limit int) { c.sweepLimit = limit }

// SetDrainObserver installs a callback the worker invokes after each
// drain burst (outside the shard lock) with the shard index and burst
// size. Install before StartWorkers.
func (c *Cluster) SetDrainObserver(f func(shard, burst int)) { c.onDrain = f }

// Enqueue routes r to its key's home shard worker and returns once
// the request is queued; the caller collects the result with r.Wait.
// A full ring applies backpressure by yielding until a slot frees.
// Without a running worker set the request executes in place (Do) and
// is complete on return — which is all it takes to be the reference
// model: a Cluster on which StartWorkers was never called.
func (c *Cluster) Enqueue(r *Req) {
	set := c.wset.Load()
	if set == nil {
		c.Do(r)
		r.done <- struct{}{}
		return
	}
	w := set.ws[c.ShardFor(r.Key)]
	for !w.q.enqueue(r) {
		w.fullSpins.Add(1)
		w.kick()
		runtime.Gosched()
	}
	w.kick()
}

// RuntimeStats snapshots every worker's counters (nil when the
// runtime is down).
func (c *Cluster) RuntimeStats() []WorkerStats {
	set := c.wset.Load()
	if set == nil {
		return nil
	}
	out := make([]WorkerStats, len(set.ws))
	for i, w := range set.ws {
		out[i] = WorkerStats{
			Depth:      w.q.depth(),
			Drains:     w.drains.Load(),
			DrainedOps: w.drainedOps.Load(),
			MaxBurst:   w.maxBurst.Load(),
			FullSpins:  w.fullSpins.Load(),
		}
	}
	return out
}

// runWorker is shard i's drain loop: gather every queued request into
// a burst, execute the burst under one shard-lock acquisition, then
// signal completions; park on an empty ring until a producer kicks.
func (c *Cluster) runWorker(set *workerSet, i int) {
	defer c.wwg.Done()
	w := set.ws[i]
	s := c.shards[i]
	burst := make([]*Req, 0, len(w.q.slots))
	for {
		burst = burst[:0]
		for len(burst) < cap(burst) {
			r := w.q.dequeue()
			if r == nil {
				break
			}
			burst = append(burst, r)
		}
		if len(burst) == 0 {
			// Park: publish the flag, then re-check the ring so an
			// enqueue that raced the flag is never lost (the producer
			// either sees parked and kicks, or we see its request here).
			w.parked.Store(true)
			if r := w.q.dequeue(); r != nil {
				w.parked.Store(false)
				burst = append(burst, r)
			} else {
				select {
				case <-w.wake:
					w.parked.Store(false)
					continue
				case <-set.stopCh:
					w.parked.Store(false)
					for { // final drain: complete everything already queued
						r := w.q.dequeue()
						if r == nil {
							return
						}
						burst = append(burst[:0], r)
						c.serveBurst(i, s, w, burst)
					}
				}
			}
		}
		c.serveBurst(i, s, w, burst)
	}
}

// serveBurst executes one drained burst inside a single shard-lock
// critical section. Probe snapshots chain across the burst (runChained),
// and every completion is signalled only after the lock is released so
// waiters never contend with the drain.
func (c *Cluster) serveBurst(i int, s *shardSlot, w *worker, burst []*Req) {
	n := len(burst)
	s.mu.Lock()
	wrote := c.runChained(i, s, burst, n)
	// Active expiry rides the drain: one bounded sampling pass per
	// burst, inside the same critical section, reaping dead keys the
	// traffic never touches (untimed; the reaps are logged like lazy
	// expiries).
	if lim := c.sweepLimit; lim > 0 && s.e.ExpiresArmed() > 0 {
		if s.e.SweepExpired(lim) > 0 && c.walOp(i, s, 0, nil, nil, nil) {
			wrote = true
		}
	}
	s.mu.Unlock()
	// Group commit: one write and (under the always policy) one fsync
	// cover every mutation of the burst. Completions are signalled only
	// after the barrier, so an acknowledged op is on durable storage.
	if wrote {
		c.walCommit(i, burst, n)
	}
	w.drains.Add(1)
	w.drainedOps.Add(uint64(n))
	if un := uint64(n); un > w.maxBurst.Load() {
		w.maxBurst.Store(un)
	}
	if c.onDrain != nil {
		c.onDrain(i, n)
	}
	for _, r := range burst {
		r.done <- struct{}{}
	}
}

// Bounded MPSC request ring: the queue between connection goroutines
// (producers) and a shard's owning worker (the single consumer). The
// fast path is futex-free — producers claim slots with a CAS on the
// tail, the consumer advances the head with plain atomic stores, and
// per-slot sequence numbers (Vyukov's bounded-queue scheme) carry the
// handoff, so an enqueue onto a non-full ring and a dequeue from a
// non-empty ring never touch a lock or the scheduler.
package shard

import (
	"sync/atomic"
)

// Req is one single-key operation and its per-op context: the request
// fields the caller fills, and the result fields the shard fills. Do
// executes it in place; Enqueue hands it to the key's shard worker,
// which signals done. Reqs are pooled per connection and reused across
// pipeline bursts, so the steady state allocates nothing: Val is
// appended into at len 0 (keeping its capacity), and the done channel
// (capacity 1) is created once per slot.
type Req struct {
	// Kind selects the engine operation.
	Kind OpKind
	// Key is the operation key. It may alias a connection read buffer;
	// the shard only reads it during execution, and the engine copies
	// what it stores, so the producer may reuse the buffer after Wait.
	Key []byte
	// Value is the SET payload (same aliasing contract as Key).
	Value []byte
	// Deadline is OpExpireAt's absolute TTL deadline (unix ns).
	Deadline int64

	// Val receives a GET's value, appended into Val[:0] — the buffer
	// is owned by the Req and reused across operations.
	Val []byte
	// OK is the boolean result: GET/EXISTS/DEL hit, always true for SET.
	OK bool
	// N is the integer result: OpExpireAt's 1 (armed) or 0 (key absent),
	// OpTTL's remaining ns (-2 absent, -1 no deadline).
	N int64
	// Out is the per-op outcome (shard, modeled cycles, addressing-path
	// flags). Set Out.Trace before Enqueue to trace the op.
	Out OpOutcome

	done chan struct{}
}

// OpKind enumerates the single-key operations a shard executes.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpSet
	OpDelete
	OpExists
	// OpGetTouch is a GET that charges the value read without
	// materializing it (the hot loop of replayers and benchmarks).
	OpGetTouch
	// OpExpireAt arms Req.Deadline on the key. A successful arm appends
	// a RecExpire frame so recovery replays the deadline.
	OpExpireAt
	OpTTL
)

// NewReq returns a request slot ready for its first Enqueue. (Do needs
// no completion channel: a Req literal is a valid argument to it.)
func NewReq() *Req { return &Req{done: make(chan struct{}, 1)} }

// Wait blocks until the request Enqueue accepted has completed. Each
// Enqueue must be matched by exactly one Wait before the Req is
// reused.
func (r *Req) Wait() { <-r.done }

// ring is the bounded MPSC queue, one per shard worker. Capacity is a
// power of two; each slot's seq field encodes its state relative to
// the wrapping positions: seq == pos means free for the producer
// claiming pos, seq == pos+1 means filled and ready for the consumer.
type ring struct {
	mask  uint64
	slots []ringSlot
	_     [48]byte // keep tail off the slots' cache lines
	tail  atomic.Uint64
	_pad  [56]byte // tail and head on separate cache lines
	head  atomic.Uint64
}

type ringSlot struct {
	seq atomic.Uint64
	req *Req
}

func newRing(capacity int) *ring {
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	q := &ring{mask: n - 1, slots: make([]ringSlot, n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// enqueue claims a slot and publishes r; it returns false when the
// ring is full. Safe for concurrent producers.
func (q *ring) enqueue(r *Req) bool {
	pos := q.tail.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				s.req = r
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.tail.Load()
		case seq < pos:
			// The slot still holds an entry from one lap ago: full.
			return false
		default:
			// Another producer claimed pos; reload the tail.
			pos = q.tail.Load()
		}
	}
}

// dequeue pops the oldest request, or nil when the ring is empty.
// Single consumer only.
func (q *ring) dequeue() *Req {
	pos := q.head.Load()
	s := &q.slots[pos&q.mask]
	if s.seq.Load() != pos+1 {
		return nil
	}
	r := s.req
	s.req = nil
	s.seq.Store(pos + q.mask + 1)
	q.head.Store(pos + 1)
	return r
}

// depth approximates the queued count (racy reads of head and tail;
// used for gauges only).
func (q *ring) depth() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

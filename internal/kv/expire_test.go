package kv

import (
	"fmt"
	"testing"

	"addrkv/internal/index"
	"addrkv/internal/trace"
)

// fakeClock is a settable TTL time source.
type fakeClock struct{ now int64 }

func (c *fakeClock) fn() func() int64 { return func() int64 { return c.now } }

func newTTLEngine(t *testing.T, maxMem int64) (*Engine, *fakeClock) {
	t.Helper()
	e, err := New(Config{Keys: 2000, Index: KindChainHash, Mode: ModeSTLT, Seed: 7, MaxMemory: maxMem})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{now: 1_000_000}
	e.SetClock(clk.fn())
	return e, clk
}

// TestExpireLazyAndSweep pins the two expiry paths: a dead key is
// reaped lazily by the next access, armed-but-alive keys survive, and
// the active sweep reaps dead keys nobody touches. Every removal must
// be queued as a Maint event for the WAL.
func TestExpireLazyAndSweep(t *testing.T) {
	e, clk := newTTLEngine(t, 0)
	e.Set([]byte("alpha"), []byte("1"))
	e.Set([]byte("beta"), []byte("2"))
	e.Set([]byte("gamma"), []byte("3"))

	if got := e.ExpireAt([]byte("alpha"), clk.now+100); got != 1 {
		t.Fatalf("ExpireAt alpha = %d", got)
	}
	if got := e.ExpireAt([]byte("beta"), clk.now+100); got != 1 {
		t.Fatalf("ExpireAt beta = %d", got)
	}
	if got := e.ExpireAt([]byte("absent"), clk.now+100); got != 0 {
		t.Fatalf("ExpireAt absent = %d", got)
	}
	if got := e.TTL([]byte("alpha")); got != 100 {
		t.Fatalf("TTL alpha = %d, want 100", got)
	}
	if got := e.TTL([]byte("gamma")); got != -1 {
		t.Fatalf("TTL gamma (no deadline) = %d, want -1", got)
	}
	if got := e.TTL([]byte("absent")); got != -2 {
		t.Fatalf("TTL absent = %d, want -2", got)
	}
	if got := e.ExpiresArmed(); got != 2 {
		t.Fatalf("ExpiresArmed = %d, want 2", got)
	}

	// Before the deadline both keys serve.
	if _, ok := e.GetInto([]byte("alpha"), nil); !ok {
		t.Fatal("alpha missing before deadline")
	}

	clk.now += 200 // both deadlines pass

	// Lazy path: the access itself reaps alpha.
	if _, ok := e.GetInto([]byte("alpha"), nil); ok {
		t.Fatal("alpha served after its deadline")
	}
	if !e.MaintPending() {
		t.Fatal("lazy expiry queued no maintenance event")
	}
	maint := e.TakeMaint(nil)
	if len(maint) != 1 || maint[0].Evict || string(maint[0].Key) != "alpha" {
		t.Fatalf("maint after lazy expiry = %+v", maint)
	}

	// Sweep path: beta is dead but untouched; one sweep cycle finds it.
	if reaped := e.SweepExpired(64); reaped != 1 {
		t.Fatalf("SweepExpired reaped %d, want 1", reaped)
	}
	if _, ok := e.GetInto([]byte("beta"), nil); ok {
		t.Fatal("beta served after sweep")
	}
	maint = e.TakeMaint(maint)
	if len(maint) != 1 || string(maint[0].Key) != "beta" {
		t.Fatalf("maint after sweep = %+v", maint)
	}
	if got := e.ExpiresArmed(); got != 0 {
		t.Fatalf("ExpiresArmed after reaping = %d, want 0", got)
	}
	// gamma (no deadline) is untouched by all of this.
	if _, ok := e.GetInto([]byte("gamma"), nil); !ok {
		t.Fatal("gamma lost")
	}
	if st := e.Stats(); st.Expired != 2 {
		t.Fatalf("Stats.Expired = %d, want 2", st.Expired)
	}

	// SET discards a TTL (Redis semantics): re-arm, overwrite, survive.
	e.Set([]byte("gamma"), []byte("v1"))
	e.ExpireAt([]byte("gamma"), clk.now+50)
	e.Set([]byte("gamma"), []byte("v2"))
	clk.now += 100
	if _, ok := e.GetInto([]byte("gamma"), nil); !ok {
		t.Fatal("SET did not discard the pending TTL")
	}
}

// refLFU is an independent reimplementation of the STLT's in-set LFU
// rule (4-bit counter, bump with probability 2^-counter from a
// xorshift64 source, victim = first minimum in insertion order), kept
// deliberately separate from kv/expire.go so the property test detects
// drift in either copy.
type refLFU struct {
	counters map[string]uint8
	sizes    map[string]int64
	order    []string
	used     int64
	rng      uint64
}

func newRefLFU(seed uint64) *refLFU {
	rng := seed ^ 0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 0x2545F4914F6CDD1D
	}
	return &refLFU{counters: map[string]uint8{}, sizes: map[string]int64{}, rng: rng}
}

func (r *refLFU) rand() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x
}

func (r *refLFU) bump(k string) {
	c := r.counters[k]
	if c >= 15 {
		return
	}
	if r.rand()&((1<<c)-1) != 0 {
		return
	}
	r.counters[k] = c + 1
}

func (r *refLFU) set(k string, size int64) {
	if old, ok := r.sizes[k]; ok {
		r.used += size - old
		r.sizes[k] = size
		r.bump(k)
		return
	}
	r.counters[k] = 0
	r.sizes[k] = size
	r.order = append(r.order, k)
	r.used += size
}

func (r *refLFU) touch(k string) {
	if _, ok := r.sizes[k]; ok {
		r.bump(k)
	}
}

func (r *refLFU) evictTo(max int64) []string {
	var victims []string
	for r.used > max && len(r.sizes) > 0 {
		victim, best := "", uint8(16)
		for _, k := range r.order {
			if _, live := r.sizes[k]; !live {
				continue
			}
			if c := r.counters[k]; c < best {
				victim, best = k, c
			}
		}
		if victim == "" {
			break
		}
		r.used -= r.sizes[victim]
		delete(r.sizes, victim)
		delete(r.counters, victim)
		victims = append(victims, victim)
	}
	// Mirror lfuState.compact's order hygiene (victim choice depends
	// only on relative order of the live keys, which compaction keeps).
	if len(r.order) > 2*len(r.sizes) && len(r.order) >= 16 {
		live := r.order[:0]
		for _, k := range r.order {
			if _, ok := r.sizes[k]; ok {
				live = append(live, k)
			}
		}
		r.order = live
	}
	return victims
}

// TestLFUVictimMatchesSTLTRule is the eviction property test: over a
// long deterministic Set/Get trace against a maxmemory engine, every
// eviction the engine performs must name exactly the victim the
// reference STLT LFU model picks, in the same order, with the same
// counter value. The engine consumes its PRNG on the same schedule as
// the model (one draw per sub-ceiling bump), so any divergence in bump
// probability, victim scan order, or accounting shows up as a victim
// mismatch within a few hundred ops.
func TestLFUVictimMatchesSTLTRule(t *testing.T) {
	const (
		seed   = uint64(7)   // must match the engine Config.Seed below
		maxMem = int64(1000) // ~31 records of the shape below
		nOps   = 6000
	)
	e, _ := newTTLEngine(t, maxMem)
	ref := newRefLFU(seed)

	val := []byte("0123456789abcdef") // 16-byte values
	recSize := int64(index.RecordSize(len("key:0000"), len(val)))

	// A deterministic mixed trace: a skewed walk of 64 keys, two Gets
	// per Set, so counters spread across the range.
	var maint []Maint
	evictions := 0
	x := uint64(12345)
	for i := 0; i < nOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		id := (x >> 8) % 64
		key := fmt.Sprintf("key:%04d", id)
		kb := []byte(key)
		switch i % 3 {
		case 0:
			e.Set(kb, val)
			ref.set(key, recSize)
			want := ref.evictTo(maxMem)
			maint = e.TakeMaint(maint[:0])
			var got []Maint
			for _, m := range maint {
				if m.Evict {
					got = append(got, m)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: engine evicted %d keys, model %d (%v vs %v)",
					i, len(got), len(want), got, want)
			}
			for j := range got {
				if string(got[j].Key) != want[j] {
					t.Fatalf("op %d eviction %d: engine victim %q, model victim %q",
						i, j, got[j].Key, want[j])
				}
			}
			evictions += len(got)
		default:
			if _, ok := e.GetInto(kb, nil); ok {
				ref.touch(key)
			}
		}
	}
	if evictions == 0 {
		t.Fatal("trace produced no evictions; the property was never exercised")
	}
	if st := e.Stats(); st.Evicted != uint64(evictions) {
		t.Fatalf("Stats.Evicted = %d, want %d", st.Evicted, evictions)
	}
	if used := e.UsedBytes(); used > maxMem {
		t.Fatalf("UsedBytes %d exceeds maxmemory %d after trace", used, maxMem)
	}
}

// TestEvictionChurnLowersSTLTHitRate: with a working set over
// maxmemory, eviction churn invalidates STLT rows and forces re-walks,
// so the measured fast-path hit rate over the first window must drop
// below an unconstrained twin serving the identical trace — and the
// churn itself must be visible to the tracer as evict events.
func TestEvictionChurnLowersSTLTHitRate(t *testing.T) {
	const (
		nKeys = 256
		nOps  = 20_000
	)
	free, _ := newTTLEngine(t, 0)
	tight, _ := newTTLEngine(t, 8*1024) // holds well under nKeys records

	tr := trace.NewTracer(1, 64)

	val := make([]byte, 48)
	// run traces every op of the tight engine (tr non-nil).
	run := func(e *Engine, tr *trace.Tracer) (hits, gets uint64) {
		x := uint64(99)
		var keyBuf []byte
		for i := 0; i < nOps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keyBuf = fmt.Appendf(keyBuf[:0], "churn:%04d", (x>>8)%nKeys)
			op := func() { e.GetInto(keyBuf, nil) }
			if i%4 == 0 {
				op = func() { e.Set(keyBuf, val) }
			}
			if tr != nil {
				runTraced(tr, e, "op", keyBuf, op)
			} else {
				op()
			}
		}
		st := e.Stats()
		return st.FastHits, st.Gets
	}
	fh, fg := run(free, nil)
	th, tg := run(tight, tr)
	if tight.Stats().Evicted == 0 {
		t.Fatal("tight engine never evicted; test shape is wrong")
	}
	freeRate := float64(fh) / float64(fg)
	tightRate := float64(th) / float64(tg)
	if tightRate >= freeRate {
		t.Fatalf("eviction churn did not lower the STLT hit rate: %.4f (churn) vs %.4f (free)",
			tightRate, freeRate)
	}
	// The churn is observable: the tracer counted evict events.
	if n := tr.EventCounts()["evict"]; n == 0 {
		t.Fatalf("tracer saw no evict events; counts = %v", tr.EventCounts())
	}
}

// TestScanSkipsExpired: keys whose deadline passed but which no access
// has reaped yet must not appear in SCAN or RANGE output.
func TestScanSkipsExpired(t *testing.T) {
	e, err := New(Config{Keys: 100, Index: KindBTree, Mode: ModeSTLT, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{now: 1000}
	e.SetClock(clk.fn())
	e.Set([]byte("a"), []byte("1"))
	e.Set([]byte("b"), []byte("2"))
	e.Set([]byte("c"), []byte("3"))
	e.ExpireAt([]byte("b"), clk.now+10)
	clk.now += 20

	var keys []string
	if _, err := e.Scan(nil, 0, func(k []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a c]" {
		t.Fatalf("SCAN emitted %v, want [a c]", keys)
	}
	var pairs []string
	if _, err := e.Range(nil, nil, 0, func(k, v []byte) bool {
		pairs = append(pairs, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pairs) != "[a=1 c=3]" {
		t.Fatalf("RANGE emitted %v, want [a=1 c=3]", pairs)
	}
	// The skipped key was NOT reaped by the scan (iteration must not
	// restructure the tree); it is still armed until something else
	// touches it.
	if got := e.ExpiresArmed(); got != 1 {
		t.Fatalf("ExpiresArmed after scan = %d, want 1 (scan must not reap)", got)
	}
}

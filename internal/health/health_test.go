package health

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func sampleDigest() *Digest {
	return &Digest{
		MapVersion:     17,
		SlotsOwned:     5461,
		SlotsMigrating: 1,
		SlotsImporting: 0,
		Ops:            123456,
		Gets:           100000,
		FastHits:       91234,
		Keys:           20000,
		UsedBytes:      1 << 20,
		OpsPerSec:      54321.5,
		LatP50US:       12.25,
		LatP99US:       480.75,
		Shards: []ShardDigest{
			{Ops: 60000, Gets: 50000, FastHits: 46000, Keys: 10001, QueueDepth: 3},
			{Ops: 63456, Gets: 50000, FastHits: 45234, Keys: 9999, QueueDepth: 0},
		},
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := sampleDigest()
	enc := d.Encode(nil)
	got, err := DecodeDigest(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", d, got)
	}
	// No shards: Shards must stay nil, not empty-slice.
	d2 := &Digest{MapVersion: 3}
	got2, err := DecodeDigest(d2.Encode(nil))
	if err != nil {
		t.Fatalf("decode empty-shard digest: %v", err)
	}
	if !reflect.DeepEqual(d2, got2) {
		t.Fatalf("empty-shard round trip mismatch: %+v vs %+v", d2, got2)
	}
}

func TestDigestDecodeRejects(t *testing.T) {
	enc := sampleDigest().Encode(nil)
	cases := map[string][]byte{
		"empty":         {},
		"short header":  enc[:digestHeaderSize-1],
		"bad version":   append([]byte{99}, enc[1:]...),
		"truncated":     enc[:len(enc)-1],
		"trailing byte": append(append([]byte{}, enc...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeDigest(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestDigestDerived(t *testing.T) {
	d := sampleDigest()
	if got, want := d.HitRate(), float64(d.FastHits)/float64(d.Gets); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
	if got := d.QueueDepth(); got != 3 {
		t.Fatalf("QueueDepth = %d, want 3", got)
	}
	if (&Digest{}).HitRate() != 0 {
		t.Fatal("zero-get HitRate must be 0")
	}
	if (ShardDigest{Gets: 10, FastHits: 5}).HitRate() != 0.5 {
		t.Fatal("shard HitRate")
	}
}

// fakeClock advances manually for deterministic state transitions.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func trackerAt(c *fakeClock, n, self int, h time.Duration) *Tracker {
	return NewTracker(n, self, Config{Interval: h, SuspectAfter: 2, DownAfter: 4, Now: c.now})
}

func TestTrackerStateMachine(t *testing.T) {
	const h = 100 * time.Millisecond
	clk := newFakeClock()
	tr := trackerAt(clk, 3, 0, h)

	// Fresh tracker: everyone ok (nothing missed yet).
	for i := 0; i < 3; i++ {
		if st := tr.State(i); st != StateOK {
			t.Fatalf("fresh node %d = %v, want ok", i, st)
		}
	}
	// Node 1 beats, node 2 stays silent.
	clk.advance(h)
	tr.Alive(1)
	clk.advance(h) // 2h since start: node 2 hits the suspect deadline
	if st := tr.State(2); st != StateSuspect {
		t.Fatalf("silent node at 2H = %v, want suspect", st)
	}
	if st := tr.State(1); st != StateOK {
		t.Fatalf("beating node = %v, want ok", st)
	}
	clk.advance(2 * h) // 4h since start: down deadline
	if st := tr.State(2); st != StateDown {
		t.Fatalf("silent node at 4H = %v, want down", st)
	}
	// Node 1 last beat 3h ago: suspect but not down.
	if st := tr.State(1); st != StateSuspect {
		t.Fatalf("node 1 at 3H since beat = %v, want suspect", st)
	}
	// A beat resurrects immediately.
	tr.Alive(2)
	if st := tr.State(2); st != StateOK {
		t.Fatalf("resurrected node = %v, want ok", st)
	}
	// Self never degrades.
	clk.advance(100 * h)
	if st := tr.State(0); st != StateOK {
		t.Fatalf("self = %v, want ok", st)
	}
	// Out-of-range probes read down, and Alive ignores them.
	tr.Alive(99)
	if st := tr.State(99); st != StateDown {
		t.Fatalf("out of range = %v, want down", st)
	}
}

func TestTrackerSnapshot(t *testing.T) {
	const h = 50 * time.Millisecond
	clk := newFakeClock()
	tr := trackerAt(clk, 2, 0, h)
	tr.Alive(1)
	clk.advance(h)
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	if snap[0].State != StateOK || snap[0].Age != 0 {
		t.Fatalf("self snapshot: %+v", snap[0])
	}
	if snap[1].Beats != 1 || snap[1].Age != h {
		t.Fatalf("peer snapshot: %+v", snap[1])
	}
	tr.Alive(1)
	if got := tr.Snapshot()[1]; got.Beats != 2 || got.Age != 0 {
		t.Fatalf("second beat not counted: %+v", got)
	}
}

func TestTrackerDegraded(t *testing.T) {
	const h = 100 * time.Millisecond
	clk := newFakeClock()
	tr := trackerAt(clk, 3, 0, h)
	tr.Alive(1)
	tr.Alive(2)
	if tr.Degraded([]int{0, 1, 2}) {
		t.Fatal("fully-alive fleet reported degraded")
	}
	clk.advance(2 * h)
	if !tr.Degraded([]int{0, 1, 2}) {
		t.Fatal("suspect peer not reported degraded")
	}
	// Degraded only considers the nodes asked about (slot owners).
	if tr.Degraded([]int{0}) {
		t.Fatal("self-only check reported degraded")
	}
	if !tr.Degraded([]int{5}) {
		t.Fatal("unknown node index must read degraded")
	}
}

func TestTrackerDisabledInterval(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(2, 0, Config{Interval: 0, Now: clk.now})
	clk.advance(time.Hour)
	if st := tr.State(1); st != StateOK {
		t.Fatalf("disabled tracker state = %v, want ok", st)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{StateOK: "ok", StateSuspect: "suspect", StateDown: "down", State(9): "unknown"} {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func FuzzDecodeDigest(f *testing.F) {
	f.Add(sampleDigest().Encode(nil))
	f.Add([]byte{digestVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDigest(b)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the same bytes.
		if got := d.Encode(nil); !reflect.DeepEqual(got, b) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", b, got)
		}
	})
}

package health

import (
	"testing"
	"time"
)

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

// Per-peer liveness tracking: every cluster node runs one Tracker fed
// by heartbeat arrivals (and heartbeat acks), and derives each peer's
// state from how long ago it was last heard:
//
//	ok      — heard within SuspectAfter·Interval
//	suspect — missed SuspectAfter..DownAfter-1 intervals
//	down    — missed DownAfter or more intervals
//
// State is derived lazily from the last-heard stamp at read time, so
// the tracker needs no ticking goroutine and readers never block
// writers: the hot path (a heartbeat arrival) is one mutex-guarded
// stamp update, far off the shard locks and the modeled data path. A
// peer that was never heard from counts from the tracker's start time,
// so a node that never comes up is detected on the same deadline as a
// node that dies.
package health

import (
	"sync"
	"time"
)

// State is one peer's liveness classification.
type State uint8

const (
	// StateOK: heard within the suspicion deadline.
	StateOK State = iota
	// StateSuspect: missed enough heartbeats to distrust, not enough
	// to declare dead. Routing still points at the node.
	StateSuspect
	// StateDown: missed the down deadline; the fleet surfaces report
	// it dead and aggregation drops its series.
	StateDown
)

// String returns the stable wire/text name of the state.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// Config tunes a Tracker.
type Config struct {
	// Interval is the heartbeat period H.
	Interval time.Duration
	// SuspectAfter is how many missed intervals move a peer to
	// suspect (0 = DefaultSuspectAfter).
	SuspectAfter int
	// DownAfter is how many missed intervals (the suspicion threshold
	// K) move a peer to down (0 = DefaultDownAfter).
	DownAfter int
	// Now overrides the clock (tests); nil = time.Now.
	Now func() time.Time
}

// Default miss thresholds: one late heartbeat is noise, two are
// suspicious, four are a dead node. Chosen so the down deadline K·H
// stays comfortably above scheduler jitter at the default interval.
const (
	DefaultSuspectAfter = 2
	DefaultDownAfter    = 4
)

// NodeHealth is one peer's tracked state snapshot.
type NodeHealth struct {
	Node  int
	State State
	Age   time.Duration // time since last heard (0 for self)
	Beats uint64        // heartbeats/acks observed from this peer
}

// Tracker derives peer liveness from heartbeat arrivals.
type Tracker struct {
	self  int
	cfg   Config
	now   func() time.Time
	mu    sync.Mutex
	last  []time.Time // last heard, per node; zero until first beat
	beats []uint64
	start time.Time
}

// NewTracker builds a tracker for a fleet of nodes, with self pinned
// permanently ok.
func NewTracker(nodes, self int, cfg Config) *Tracker {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DownAfter <= cfg.SuspectAfter {
		cfg.DownAfter = max(cfg.SuspectAfter+1, DefaultDownAfter)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Tracker{
		self:  self,
		cfg:   cfg,
		now:   now,
		last:  make([]time.Time, nodes),
		beats: make([]uint64, nodes),
		start: now(),
	}
}

// Interval returns the configured heartbeat period.
func (t *Tracker) Interval() time.Duration { return t.cfg.Interval }

// DownAfter returns the down threshold K (missed intervals).
func (t *Tracker) DownAfter() int { return t.cfg.DownAfter }

// Alive records evidence that node is alive right now: a heartbeat
// arrival, a heartbeat ack, or any successful bus exchange.
func (t *Tracker) Alive(node int) {
	if node < 0 || node >= len(t.last) {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.last[node] = now
	t.beats[node]++
	t.mu.Unlock()
}

// stateOf derives a peer's state from its last-heard age. Callers hold
// t.mu.
func (t *Tracker) stateOf(node int, now time.Time) (State, time.Duration) {
	if node == t.self {
		return StateOK, 0
	}
	ref := t.last[node]
	if ref.IsZero() {
		ref = t.start // never heard: count from tracker start
	}
	age := now.Sub(ref)
	if t.cfg.Interval <= 0 {
		return StateOK, age // liveness tracking disabled
	}
	switch {
	case age < time.Duration(t.cfg.SuspectAfter)*t.cfg.Interval:
		return StateOK, age
	case age < time.Duration(t.cfg.DownAfter)*t.cfg.Interval:
		return StateSuspect, age
	default:
		return StateDown, age
	}
}

// State classifies one node right now.
func (t *Tracker) State(node int) State {
	if node < 0 || node >= len(t.last) {
		return StateDown
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, _ := t.stateOf(node, t.now())
	return s
}

// Snapshot returns every node's current health, ordered by node index.
func (t *Tracker) Snapshot() []NodeHealth {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeHealth, len(t.last))
	for i := range t.last {
		st, age := t.stateOf(i, now)
		out[i] = NodeHealth{Node: i, State: st, Age: age, Beats: t.beats[i]}
	}
	return out
}

// Degraded reports whether any of the given nodes is suspect or down —
// the CLUSTER INFO cluster_state check, fed with the set of nodes that
// own at least one slot.
func (t *Tracker) Degraded(nodes []int) bool {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range nodes {
		if n < 0 || n >= len(t.last) {
			return true
		}
		if st, _ := t.stateOf(n, now); st != StateOK {
			return true
		}
	}
	return false
}

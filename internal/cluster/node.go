// Node-local cluster state: the current slot map plus the two
// transient migration sets (slots leaving, slots arriving) and the
// counters the INFO/metrics surface reports.
//
// Installed slot maps are immutable: every change clones the current
// map, edits the clone, bumps its version and swaps the pointer — so
// readers (routing, the op gate) take a short RLock to copy the
// pointer and then read without synchronization.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"addrkv/internal/shard"
)

// RouteAction classifies one key command's routing at classify time.
type RouteAction uint8

const (
	// RouteServe executes the command on this node (the op gate still
	// has the final word under the shard lock).
	RouteServe RouteAction = iota
	// RouteServeBypass executes the command with the op gate bypassed:
	// the connection sent ASKING and the key's slot is importing here.
	RouteServeBypass
	// RouteMoved answers -MOVED toward the slot's owner.
	RouteMoved
)

// RedirectKind classifies the redirect for an op the gate denied.
type RedirectKind uint8

const (
	// RedirectMoved: the slot is (now) owned elsewhere.
	RedirectMoved RedirectKind = iota
	// RedirectAsk: the slot is migrating and the key has already been
	// extracted — the destination serves it after ASKING.
	RedirectAsk
	// RedirectTryAgain: transient (the migration state changed between
	// the denial and this lookup); the client simply retries.
	RedirectTryAgain
)

// Metrics are the node's cluster counters, all monotonic except the
// Last* gauges.
type Metrics struct {
	Moved    atomic.Uint64 // -MOVED redirects answered
	Asked    atomic.Uint64 // -ASK redirects answered
	Asking   atomic.Uint64 // ASKING commands accepted
	TryAgain atomic.Uint64 // -TRYAGAIN answers

	MigStarted   atomic.Uint64 // migrations started (source side)
	MigCompleted atomic.Uint64 // migrations committed (source side)
	MigFailed    atomic.Uint64 // migration attempts that errored
	MigKeys      atomic.Uint64 // records shipped out
	MigBytes     atomic.Uint64 // frame bytes shipped out

	ImpBatches  atomic.Uint64 // batches installed (destination side)
	ImpRecords  atomic.Uint64 // records installed
	ImpRewarmed atomic.Uint64 // STLT rows re-warmed on install

	LastMigSlot atomic.Int64 // last committed slot (-1 when none)
	LastMigUS   atomic.Int64 // last committed migration's wall us
}

// Node is one cluster member's control state.
type Node struct {
	self int

	mu        sync.RWMutex
	smap      *SlotMap
	migrating map[uint16]int // slot -> destination node (source side)
	importing map[uint16]int // slot -> source node (destination side)

	// Metrics is exported for the serving layer's INFO/metrics.
	Metrics Metrics

	// prog tracks source-side migration progress (see progress.go).
	prog progress
}

// NewNode builds a node's state around an initial map.
func NewNode(self int, m *SlotMap) *Node {
	n := &Node{
		self:      self,
		smap:      m,
		migrating: make(map[uint16]int),
		importing: make(map[uint16]int),
	}
	n.Metrics.LastMigSlot.Store(-1)
	return n
}

// Self returns this node's index.
func (n *Node) Self() int { return n.self }

// Map returns the current slot map. Installed maps are immutable —
// treat as read-only.
func (n *Node) Map() *SlotMap {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.smap
}

// Version returns the current map epoch.
func (n *Node) Version() uint64 { return n.Map().Version }

// AdoptMap installs m when it is strictly newer, returning whether it
// was adopted.
func (n *Node) AdoptMap(m *SlotMap) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Version <= n.smap.Version {
		return false
	}
	n.smap = m
	return true
}

// RouteKey classifies one key command at dispatch time. asking is the
// connection's one-shot ASKING flag. addr is the redirect target for
// RouteMoved.
func (n *Node) RouteKey(key []byte, asking bool) (slot uint16, action RouteAction, addr string) {
	slot = SlotOf(key)
	n.mu.RLock()
	defer n.mu.RUnlock()
	owner := n.smap.Owner(slot)
	if owner == n.self {
		return slot, RouteServe, ""
	}
	if asking {
		if _, ok := n.importing[slot]; ok {
			return slot, RouteServeBypass, ""
		}
	}
	return slot, RouteMoved, n.smap.Nodes[owner].Addr
}

// Gate is the op-gate decision for one key, evaluated under the
// shard lock (see shard.SetOpGate): owned and stable slots execute,
// migrating slots dual-serve (present keys only), everything else is
// denied and redirected by RedirectFor.
func (n *Node) Gate(key []byte) shard.GateDecision {
	slot := SlotOf(key)
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.smap.Owner(slot) != n.self {
		return shard.GateDeny
	}
	if _, mig := n.migrating[slot]; mig {
		return shard.GateIfPresent
	}
	return shard.GateAllow
}

// RedirectFor resolves the redirect for an op the gate denied,
// against the CURRENT state (which may be newer than the one that
// denied — any answer derived from fresher state is still valid
// routing).
func (n *Node) RedirectFor(key []byte) (slot uint16, kind RedirectKind, addr string) {
	slot = SlotOf(key)
	n.mu.RLock()
	defer n.mu.RUnlock()
	owner := n.smap.Owner(slot)
	if owner != n.self {
		return slot, RedirectMoved, n.smap.Nodes[owner].Addr
	}
	if dest, ok := n.migrating[slot]; ok {
		return slot, RedirectAsk, n.smap.Nodes[dest].Addr
	}
	return slot, RedirectTryAgain, ""
}

// SlotInfo reports one slot's full local view (for CLUSTER INFO and
// multi-key classify).
func (n *Node) SlotInfo(slot uint16) (owner int, ownerAddr string, migrating, importing bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	owner = n.smap.Owner(slot)
	ownerAddr = n.smap.Nodes[owner].Addr
	_, migrating = n.migrating[slot]
	_, importing = n.importing[slot]
	return owner, ownerAddr, migrating, importing
}

// OwnedSlots returns how many slots this node currently owns.
func (n *Node) OwnedSlots() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.smap.OwnedCount(n.self)
}

// MigratingSlots returns the slots currently leaving this node.
func (n *Node) MigratingSlots() []uint16 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]uint16, 0, len(n.migrating))
	for s := range n.migrating {
		out = append(out, s)
	}
	return out
}

// ImportingSlots returns the slots currently arriving at this node.
func (n *Node) ImportingSlots() []uint16 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]uint16, 0, len(n.importing))
	for s := range n.importing {
		out = append(out, s)
	}
	return out
}

// BeginMigrate marks a slot as leaving toward dest. The slot must be
// owned here, stable, and dest must be another known node. resumed
// reports that the slot was ALREADY migrating toward dest — an
// interrupted migration being re-issued, whose earlier batches may
// have shipped; the caller must then never clear the mark on failure.
func (n *Node) BeginMigrate(slot uint16, dest int) (resumed bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if dest < 0 || dest >= len(n.smap.Nodes) {
		return false, fmt.Errorf("cluster: unknown destination node %d", dest)
	}
	if dest == n.self {
		return false, fmt.Errorf("cluster: slot %d already on node %d", slot, dest)
	}
	if n.smap.Owner(slot) != n.self {
		return false, fmt.Errorf("cluster: slot %d not owned here (owner %d)", slot, n.smap.Owner(slot))
	}
	if d, ok := n.migrating[slot]; ok {
		if d == dest {
			return true, nil // resume of an interrupted migration
		}
		return false, fmt.Errorf("cluster: slot %d already migrating to %d", slot, d)
	}
	n.migrating[slot] = dest
	return false, nil
}

// AbortMigrate clears a slot's migrating mark (only safe when no
// batch was shipped — the caller restored every record locally).
func (n *Node) AbortMigrate(slot uint16) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.migrating, slot)
}

// FinishMigrate installs the committed map and clears the migrating
// mark in one step, so no op can observe "owned elsewhere" while the
// slot still looks migrating.
func (n *Node) FinishMigrate(slot uint16, m *SlotMap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Version > n.smap.Version {
		n.smap = m
	}
	delete(n.migrating, slot)
}

// BeginImport marks a slot as arriving from src. Refuses when this
// node already owns the slot or is importing it from a different
// source; re-announcing the same import is a resume and succeeds.
func (n *Node) BeginImport(slot uint16, src int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.smap.Owner(slot) == n.self {
		return fmt.Errorf("cluster: slot %d already owned here", slot)
	}
	if s, ok := n.importing[slot]; ok && s != src {
		return fmt.Errorf("cluster: slot %d already importing from %d", slot, s)
	}
	n.importing[slot] = src
	return nil
}

// ImportingFrom returns the source node a slot is arriving from, if
// any. Batch installs gate on this: a MigBatch for a slot that is not
// importing here (or importing from someone else) must be refused, so
// a duplicate batch surfacing after the commit cannot re-install
// stale records over newer acknowledged writes.
func (n *Node) ImportingFrom(slot uint16) (src int, ok bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	src, ok = n.importing[slot]
	return src, ok
}

// CommitImport installs the committed map (version-gated) and clears
// the importing mark — the destination's half of the ownership flip.
func (n *Node) CommitImport(slot uint16, m *SlotMap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Version > n.smap.Version {
		n.smap = m
	}
	delete(n.importing, slot)
}

// Functional (untimed) single-record operations for slot migration.
//
// Moving a slot between cluster nodes is a maintenance path, like the
// durability snapshots RangeRecords serves: it must observe and edit
// the store without charging simulated cycles or disturbing cache/TLB
// state, so the modeled cost of serving traffic stays attributable to
// traffic alone. Every helper here therefore runs the engine in Fast
// (functional-only) mode, the same discipline Load/LoadOne follow.
//
// The one deliberate exception to "no state changes" is RewarmOne: it
// re-inserts the key's STLT row, because that IS the operation under
// study — the paper's record-move protocol ends with insertSTLT() so
// the destination's fast path re-warms instead of taking a miss storm.
package kv

import "addrkv/internal/index"

// Contains reports whether key is currently stored, functionally —
// no cycles charged, no counters moved, no fast-path state touched.
func (e *Engine) Contains(key []byte) bool {
	wasFast := e.M.Fast
	e.M.Fast = true
	_, ok := e.Idx.Get(key)
	e.M.Fast = wasFast
	return ok
}

// PeekOne reads key's stored value functionally, appending it into
// vbuf[:0]. The returned slice aliases vbuf's (possibly regrown)
// backing array; callers that keep the value must copy it.
func (e *Engine) PeekOne(key, vbuf []byte) ([]byte, bool) {
	wasFast := e.M.Fast
	e.M.Fast = true
	rec, ok := e.Idx.Get(key)
	e.M.Fast = wasFast
	if !ok {
		return nil, false
	}
	_, v := index.RecordKV(e.M.AS, rec, nil, vbuf[:0])
	return v, true
}

// RemoveOne deletes a key functionally, keeping the fast paths
// coherent (STLT/SLB rows invalidated, uncharged) — the source-side
// half of a record move: after extraction the row must not validate
// against a freed record, exactly as in the timed Delete path. TTL and
// eviction bookkeeping for the key is dropped too (callers that need
// the deadline — migration ships TTLs with their records — read it
// first via DeadlineOf).
func (e *Engine) RemoveOne(key []byte) bool {
	wasFast := e.M.Fast
	e.M.Fast = true
	ok := e.Idx.Delete(key)
	if ok {
		e.forget(key)
	}
	e.M.Fast = wasFast
	return ok
}

// RewarmOne re-inserts key's STLT row from the index, functionally —
// the software analog of the paper's insertSTLT() after a record
// move: the destination of a migration replays this per record so its
// fast path is warm before the first client GET arrives. It is the
// record-move refresh SET makes, so an SLB drops any stale entry
// instead. Returns whether a row was inserted (false when the key is
// absent or the engine has no STLT).
func (e *Engine) RewarmOne(key []byte) bool {
	if e.fast == nil {
		return false
	}
	wasFast := e.M.Fast
	e.M.Fast = true
	rec, ok := e.Idx.Get(key)
	ok = ok && e.fast.moved(key, rec)
	e.M.Fast = wasFast
	return ok
}

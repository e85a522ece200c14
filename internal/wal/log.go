package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when Commit fsyncs — the Redis appendfsync trade-off.
type Policy int

// Fsync policies. FsyncAlways makes every Commit durable before it
// returns (an acknowledged op can never be lost); FsyncEverySec marks
// the segment dirty and a background syncer fsyncs at most once per
// second (bounded loss window, near-zero hot-path cost); FsyncNo
// leaves flushing to the OS entirely.
const (
	FsyncNo Policy = iota
	FsyncEverySec
	FsyncAlways
)

func (p Policy) String() string {
	switch p {
	case FsyncNo:
		return "no"
	case FsyncEverySec:
		return "everysec"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the -aof-fsync flag values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "no":
		return FsyncNo, nil
	case "everysec":
		return FsyncEverySec, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, everysec, or no)", s)
}

// segPath and snapPath name one shard's generation-g files. Rewrites
// bump the generation and swap whole files in atomically (rename), so
// there is never a moment where a crash can observe a half-truncated
// log — recovery just picks the highest complete generation.
func segPath(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.aof.%d", shard, gen))
}

func snapPath(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.snap.%d", shard, gen))
}

// Log is one shard's append-only log. Exactly one writer (the shard's
// owning worker or a mutex-path caller holding the shard lock) appends;
// the internal mutex only coordinates appends with the background
// everysec syncer and with rewrites.
//
// The write path is two-phase to match the worker runtime's burst
// shape: Append encodes frames into a pending buffer (no syscalls, no
// allocations in steady state), and Commit writes the whole buffer
// with one pwrite(2) and at most one fdatasync — group commit over a
// drain burst.
//
// The segment is zero-filled ahead of the writes. Three invariants:
// bytes [0,size) are whole frames, [size,alloc) are written zeros
// (never a hole), and the file is alloc bytes long. A burst therefore
// overwrites blocks the file already owns and its fdatasync has no
// size or extent change to push through the filesystem journal — the
// journal commit is what a barrier on a growing file mostly costs.
// Nothing depends on the zeros being there: every commit is write,
// then a sync that covers the data and any size change, then ack.
type Log struct {
	dir    string
	shard  int
	policy Policy

	mu    sync.Mutex
	f     *os.File
	gen   uint64
	pend  []byte
	size  int64 // committed bytes in the current segment
	alloc int64 // segment file length; [size,alloc) is the zero-filled tail
	err   error // sticky I/O error; appends/commits stop after the first

	// unsynced tracks whether bytes written since the last fsync exist,
	// so an always-policy Commit on a write-free burst skips the
	// barrier instead of fsyncing an already-durable file.
	unsynced bool

	appends  uint64
	commits  uint64
	extends  uint64
	fsyncs   uint64
	fsyncNS  uint64
	rewrites uint64
	lastSave int64 // unix ns of the last completed rewrite (0 = never)

	// onFsync, when set (before traffic), observes each fsync's wall
	// duration — the telemetry histogram hook.
	onFsync func(ns int64)

	dirty  atomic.Bool
	stop   chan struct{}
	closed chan struct{}
}

// SetFsyncObserver installs a callback invoked (under the log mutex)
// with each fsync's wall-clock nanoseconds. Install before traffic.
func (l *Log) SetFsyncObserver(fn func(ns int64)) { l.onFsync = fn }

// Policy returns the fsync policy.
func (l *Log) Policy() Policy { return l.policy }

// Append encodes one record into the pending buffer. It touches no
// file and performs no allocation once the buffer has grown to the
// burst's working size; Commit publishes it. Returns the frame's
// encoded size.
func (l *Log) Append(kind Kind, key, value []byte) int {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return 0
	}
	before := len(l.pend)
	l.pend = AppendFrame(l.pend, kind, key, value)
	n := len(l.pend) - before
	l.appends++
	l.mu.Unlock()
	return n
}

// tailLead is how far ahead of the write position the zero-filled tail
// is kept; tailStep is how much one commit adds when it has fallen
// short. A step is small enough to ride inside a commit (it costs
// about what a barrier on a growing file always did, once per
// tailStep of log) — extending megabytes at a time buys nothing more
// and stalls every writer behind it for tens of milliseconds.
const (
	tailLead = 1 << 20
	tailStep = 256 << 10
)

var zeroStep [tailStep]byte

// Commit writes the pending buffer to the segment with one pwrite(2)
// and applies the fsync policy: always → sync now (group commit —
// one barrier for every record appended since the last Commit);
// everysec → mark dirty for the background syncer; no → nothing.
// The returned error is sticky: after an I/O error the log stops
// accepting writes and every later Commit reports it.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeOutLocked(l.policy == FsyncAlways)
}

// writeOutLocked is the one write-out: the pending burst goes to
// offset size, one more step of zeros to offset alloc when the tail
// has run short (a failed extension is a failed write), then the
// barrier if asked for and anything is unsynced — which under always
// includes records another path (a mutex-mode op between worker
// bursts) wrote without waiting.
func (l *Log) writeOutLocked(barrier bool) error {
	if l.err != nil {
		return l.err
	}
	if len(l.pend) > 0 {
		n, err := l.f.WriteAt(l.pend, l.size)
		l.size += int64(n)
		l.alloc = max(l.alloc, l.size)
		l.pend = l.pend[:0]
		l.commits++
		l.unsynced = true
		if err == nil && l.alloc-l.size < tailLead {
			n, err = l.f.WriteAt(zeroStep[:], l.alloc)
			l.alloc += int64(n)
			l.extends++
		}
		if err != nil {
			l.err = fmt.Errorf("wal shard %d: append: %w", l.shard, err)
			return l.err
		}
	}
	switch {
	case !l.unsynced:
	case barrier:
		return l.fsyncLocked()
	case l.policy == FsyncEverySec:
		l.dirty.Store(true)
	}
	return nil
}

func (l *Log) fsyncLocked() error {
	t0 := time.Now()
	err := datasync(l.f)
	ns := time.Since(t0).Nanoseconds()
	l.fsyncs++
	l.fsyncNS += uint64(ns)
	l.unsynced = false
	if l.onFsync != nil {
		l.onFsync(ns)
	}
	if err != nil {
		l.err = fmt.Errorf("wal shard %d: fsync: %w", l.shard, err)
		return l.err
	}
	return nil
}

// Sync force-commits pending records and syncs regardless of policy
// (shutdown, snapshot barriers).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeOutLocked(true)
}

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close stops the background syncer, commits and syncs pending
// records, cuts the zero-filled tail off — a cleanly closed segment is
// exactly its frames — and closes the segment.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.closed
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.writeOutLocked(true)
	if err == nil && l.alloc > l.size {
		if err = l.f.Truncate(l.size); err == nil {
			l.alloc = l.size
		}
	}
	closeErr := l.f.Close()
	l.f = nil
	if err != nil {
		return err
	}
	return closeErr
}

// runSyncer is the everysec background fsync loop.
func (l *Log) runSyncer() {
	defer close(l.closed)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if l.dirty.Swap(false) {
				l.mu.Lock()
				if l.err == nil && l.f != nil {
					l.fsyncLocked() //nolint:errcheck // sticky in l.err
				}
				l.mu.Unlock()
			}
		}
	}
}

// Stats is a point-in-time snapshot of one log's counters.
type Stats struct {
	// Gen is the current file generation (bumped by every rewrite).
	Gen uint64
	// SizeBytes counts committed bytes in the current segment,
	// AllocBytes the segment file's length (SizeBytes plus the
	// zero-filled tail); PendBytes counts encoded-but-uncommitted bytes.
	SizeBytes  int64
	AllocBytes int64
	PendBytes  int
	// Appends/Commits/Fsyncs count records, pwrite(2) batches, and
	// sync barriers — Appends/Commits is the group-commit factor.
	// Extends counts the commits that also zero-filled a step of tail:
	// the ones whose barrier paid a filesystem journal commit.
	Appends uint64
	Commits uint64
	Extends uint64
	Fsyncs  uint64
	// FsyncNS is total wall time spent in fsync.
	FsyncNS uint64
	// Rewrites counts compacting snapshots; LastSaveUnixNS stamps the
	// last one (0 = never in this process's lifetime).
	Rewrites       uint64
	LastSaveUnixNS int64
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Gen:            l.gen,
		SizeBytes:      l.size,
		AllocBytes:     l.alloc,
		PendBytes:      len(l.pend),
		Appends:        l.appends,
		Commits:        l.commits,
		Extends:        l.extends,
		Fsyncs:         l.fsyncs,
		FsyncNS:        l.fsyncNS,
		Rewrites:       l.rewrites,
		LastSaveUnixNS: l.lastSave,
	}
}

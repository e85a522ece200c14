package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func tmpSnapPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.snap.tmp", shard))
}

// RewriteKinds compacts the log: emit streams the shard's live state
// (the BGSAVE body — typically kv.Engine.RangeRecords under the shard
// lock) as records of the caller's choice of kind — RecLoad for the
// bodies, then RecExpire for armed TTL deadlines, keeping a compacted
// log equivalent to the uncompacted one — which RewriteKinds
// serializes into a new snapshot generation, after which the log
// segment restarts empty.
//
// The swap is crash-safe by construction, following the onvakv
// entry-file scheme of pruning the head by replacing files rather than
// truncating in place:
//
//  1. write snapshot to a temporary, fsync it
//  2. rename it to snap.(g+1) — the atomic commit point
//  3. create the empty segment aof.(g+1), fsync the directory
//  4. retire generation g's files
//
// A crash before step 2 leaves generation g intact (the temporary is
// debris removed at the next open); a crash after it recovers from
// g+1, with a missing aof.(g+1) reading as an empty tail. At no point
// can recovery observe a state with a record doubled between snapshot
// and log or a record lost.
//
// The caller must hold the shard's execution lock so the emitted state
// is a consistent cut; records appended before the rewrite but not yet
// committed are dropped from the buffer — their effects are inside the
// cut, so replay must not see them again.
func (l *Log) RewriteKinds(emit func(add func(kind Kind, key, value []byte) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}

	tmp := tmpSnapPath(l.dir, l.shard)
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal shard %d: rewrite: %w", l.shard, err)
	}
	bw := bufio.NewWriterSize(tf, 1<<16)
	var scratch []byte
	werr := emit(func(kind Kind, key, value []byte) error {
		scratch = AppendFrame(scratch[:0], kind, key, value)
		_, err := bw.Write(scratch)
		return err
	})
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = tf.Sync()
	}
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal shard %d: rewrite: %w", l.shard, werr)
	}

	newGen := l.gen + 1
	if err := os.Rename(tmp, snapPath(l.dir, l.shard, newGen)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal shard %d: rewrite commit: %w", l.shard, err)
	}
	nf, err := os.OpenFile(segPath(l.dir, l.shard, newGen),
		os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal shard %d: rewrite segment: %w", l.shard, err)
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return fmt.Errorf("wal shard %d: rewrite dir sync: %w", l.shard, err)
	}

	oldGen := l.gen
	l.f.Close()
	l.f = nf
	l.gen = newGen
	l.size, l.alloc = 0, 0
	l.pend = l.pend[:0]
	l.unsynced = false
	l.rewrites++
	l.lastSave = time.Now().UnixNano()
	os.Remove(segPath(l.dir, l.shard, oldGen))
	os.Remove(snapPath(l.dir, l.shard, oldGen))
	return nil
}

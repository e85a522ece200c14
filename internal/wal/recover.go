package wal

import (
	"cmp"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Recovery is what OpenShard found on disk: the surviving record
// stream for one shard, split into the snapshot part (replayed as
// untimed bulk loads) and the log tail (replayed as timed ops).
// Records alias internal buffers owned by the Recovery.
type Recovery struct {
	// Gen is the generation recovered from.
	Gen uint64
	// Snapshot holds the snapshot's records (all RecLoad), empty when
	// no snapshot generation exists.
	Snapshot []Record
	// Tail holds the log records appended after the snapshot.
	Tail []Record
	// TailBytes is the log segment's length in whole frames.
	TailBytes int64
	// TornBytes counts trailing log bytes dropped because the final
	// frame was truncated or failed its checksum; TornErr describes the
	// defect. A torn tail is expected after a crash — it is a warning,
	// never a startup failure. The zeros a log that was not closed had
	// filled ahead of its writes are not torn and not counted.
	TornBytes int64
	TornErr   error

	padding          int64    // zero-filled bytes after the tail (and any torn bytes)
	stale            []string // files of older generations
	snapBuf, tailBuf []byte   // backing stores for the record slices
}

// ScanTail makes buf, one log segment's image, the recovery's tail.
func (r *Recovery) ScanTail(buf []byte) {
	res := Scan(buf)
	r.tailBuf, r.Tail, r.TailBytes = buf, res.Records, res.Valid
	r.TornBytes, r.TornErr, r.padding = res.TornBytes, res.TornErr, res.Padding
}

// Records returns the full surviving stream: snapshot, then tail.
func (r *Recovery) Records() []Record {
	out := make([]Record, 0, len(r.Snapshot)+len(r.Tail))
	out = append(out, r.Snapshot...)
	return append(out, r.Tail...)
}

// shardFiles lists a shard's generation-numbered snapshot and segment
// files present in dir.
func shardFiles(dir string, shard int) (snaps, segs map[uint64]bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	snaps, segs = map[uint64]bool{}, map[uint64]bool{}
	snapPrefix := fmt.Sprintf("shard-%d.snap.", shard)
	segPrefix := fmt.Sprintf("shard-%d.aof.", shard)
	for _, e := range entries {
		name := e.Name()
		if g, ok := parseGen(name, snapPrefix); ok {
			snaps[g] = true
		} else if g, ok := parseGen(name, segPrefix); ok {
			segs[g] = true
		}
	}
	return snaps, segs, nil
}

func parseGen(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// DetectShards reports how many shards have durability files in dir
// (max shard index + 1; 0 when the directory is empty or absent). A
// server restarting over an existing AOF directory must run with the
// same shard count the files were written with — per-shard logs only
// order operations within a shard.
func DetectShards(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		rest, ok := strings.CutPrefix(name, "shard-")
		if !ok {
			continue
		}
		idxStr, _, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			continue
		}
		if idx+1 > n {
			n = idx + 1
		}
	}
	return n, nil
}

// OpenShard opens (creating if necessary) shard i's log under dir and
// recovers its surviving record stream: ReadShard, plus the side
// effects of taking the directory over. A torn or corrupt log tail is
// truncated in place so the segment ends on a frame boundary before
// appends resume; an all-zero remainder stays as the reopened log's
// preallocation. Stale generations and half-written snapshot
// temporaries (debris of a rewrite interrupted by a crash) are removed.
func OpenShard(dir string, shard int, policy Policy) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	os.Remove(tmpSnapPath(dir, shard)) // crashed-rewrite debris
	rec, err := ReadShard(dir, shard)
	if err != nil {
		return nil, nil, err
	}
	seg, alloc := segPath(dir, shard, rec.Gen), rec.TailBytes+rec.padding
	if rec.TornBytes > 0 {
		if err := os.Truncate(seg, rec.TailBytes); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		alloc = rec.TailBytes
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open segment: %w", err)
	}
	// Recovery committed to rec.Gen, so older files are dead weight (and
	// would confuse a later recovery if its files were ever lost).
	for _, p := range rec.stale {
		os.Remove(p)
	}

	l := &Log{dir: dir, shard: shard, policy: policy, f: f, gen: rec.Gen, size: rec.TailBytes, alloc: alloc}
	if st, err := os.Stat(snapPath(dir, shard, rec.Gen)); err == nil {
		l.lastSave = st.ModTime().UnixNano()
	}
	if policy == FsyncEverySec {
		l.stop = make(chan struct{})
		l.closed = make(chan struct{})
		go l.runSyncer()
	}
	return l, rec, nil
}

// ReadShard loads shard i's surviving record stream without side
// effects: no file creation, no torn-tail truncation, no stale-
// generation cleanup. The highest generation present wins: its
// snapshot (if any) plus its log segment. This is the offline
// reference-executor path (kvreplay -format aof) — it must be able to
// examine a log directory it does not own.
func ReadShard(dir string, shard int) (*Recovery, error) {
	snaps, segs, err := shardFiles(dir, shard)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{Gen: 1}
	for g := range snaps {
		rec.Gen = max(rec.Gen, g)
	}
	for g := range segs {
		rec.Gen = max(rec.Gen, g)
	}
	for g := range snaps {
		if g != rec.Gen {
			rec.stale = append(rec.stale, snapPath(dir, shard, g))
		}
	}
	for g := range segs {
		if g != rec.Gen {
			rec.stale = append(rec.stale, segPath(dir, shard, g))
		}
	}
	if snaps[rec.Gen] {
		buf, err := os.ReadFile(snapPath(dir, shard, rec.Gen))
		if err != nil {
			return nil, fmt.Errorf("wal: read snapshot: %w", err)
		}
		res := Scan(buf)
		if res.Valid != int64(len(buf)) {
			// Snapshots are written to a temporary and renamed into place
			// only after fsync, so a damaged one (or one with anything
			// after its frames) is real corruption, not a crash artifact.
			return nil, fmt.Errorf("wal: shard %d snapshot gen %d corrupt at byte %d: %w",
				shard, rec.Gen, res.Valid, cmp.Or(res.TornErr, ErrCorrupt))
		}
		rec.snapBuf, rec.Snapshot = buf, res.Records
	}
	if buf, err := os.ReadFile(segPath(dir, shard, rec.Gen)); err == nil {
		rec.ScanTail(buf)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: read segment: %w", err)
	}
	return rec, nil
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable (the POSIX dance atomic file replacement requires).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

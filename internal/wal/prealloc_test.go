package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestLogMatchesPlainAppender is the differential against what the log
// was before it preallocated: a seeded random stream goes through a Log
// and, frame by frame, onto a plain byte slice. After every commit the
// segment file is the slice, then zeros and nothing but zeros, at most
// lead + step of them; after Close it is the slice exactly. Rewrites,
// clean reopens and kills (the padded image reopened as it stands) are
// interleaved; some bursts are larger than the whole lead.
func TestLogMatchesPlainAppender(t *testing.T) {
	const seed = 0xA110C
	for _, policy := range []Policy{FsyncNo, FsyncEverySec, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(policy)))
			dir := t.TempDir()
			l, _, err := OpenShard(dir, 0, policy)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			var ref []byte // what a plain appender's current segment would hold
			var recs, overran, extends int
			big := make([]byte, 300<<10)
			rng.Read(big)

			// checkFile holds the segment to ref from byte `from` on.
			checkFile := func(step int, from int64, closed bool) {
				t.Helper()
				label := fmt.Sprintf("seed %#x policy %s step %d", seed, policy, step)
				f, err := os.Open(l.SegmentPath())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				defer f.Close()
				fi, _ := f.Stat()
				got := make([]byte, fi.Size()-from)
				if _, err := f.ReadAt(got, from); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				st := l.Stats()
				if st.SizeBytes != int64(len(ref)) || st.AllocBytes != fi.Size() {
					t.Fatalf("%s: size %d alloc %d, want %d and file length %d", label, st.SizeBytes, st.AllocBytes, len(ref), fi.Size())
				}
				frames, pad := got[:int64(len(ref))-from], got[int64(len(ref))-from:]
				if !bytes.Equal(frames, ref[from:]) {
					t.Fatalf("%s: bytes [%d,%d) differ from the plain appender's", label, from, len(ref))
				}
				if !allZero(pad) || len(pad) > tailLead+tailStep || closed && len(pad) != 0 {
					t.Fatalf("%s: %d byte(s) after the frames (closed=%v, all zero=%v)", label, len(pad), closed, allZero(pad))
				}
			}
			reopen := func(step int, in string) {
				t.Helper()
				var rec *Recovery
				if l, rec, err = OpenShard(in, 0, policy); err != nil {
					t.Fatalf("seed %#x step %d: reopen: %v", seed, step, err)
				}
				if rec.TornBytes != 0 || rec.TailBytes != int64(len(ref)) || len(rec.Tail) != recs {
					t.Fatalf("seed %#x step %d: reopened with %d torn, %d tail bytes, %d records; want 0, %d, %d",
						seed, step, rec.TornBytes, rec.TailBytes, len(rec.Tail), len(ref), recs)
				}
			}

			for step := 0; step < 60; step++ {
				switch op := rng.Intn(20); {
				case op == 0: // compacting rewrite: the segment restarts empty
					err := l.RewriteKinds(func(add func(Kind, []byte, []byte) error) error {
						return add(RecLoad, []byte("live"), big[:rng.Intn(512)])
					})
					if err != nil {
						t.Fatal(err)
					}
					ref, recs = ref[:0], 0
					checkFile(step, 0, true)
				case op == 1: // clean shutdown and restart
					extends += int(l.Stats().Extends)
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					checkFile(step, 0, true)
					reopen(step, dir)
				case op == 2: // kill: the image as it stands, padding and all
					extends += int(l.Stats().Extends)
					next := t.TempDir()
					for _, p := range []string{snapPath(dir, 0, l.Stats().Gen), l.SegmentPath()} {
						if img, err := os.ReadFile(p); err == nil {
							if err := os.WriteFile(filepath.Join(next, filepath.Base(p)), img, 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}
					l.Close()
					dir = next
					reopen(step, dir)
					checkFile(step, 0, false)
				default:
					from := int64(len(ref))
					for n := 1 + rng.Intn(64); n > 0; n-- {
						key := fmt.Appendf(nil, "key-%d", rng.Intn(1000))
						kind, val := RecSet, big[:rng.Intn(400)]
						switch rng.Intn(16) {
						case 0, 3:
							val = big[:rng.Intn(len(big)+1)]
						case 1:
							kind, val = RecDel, nil
						case 2:
							kind, val = RecExpire, binary.LittleEndian.AppendUint64(nil, rng.Uint64())
						}
						l.Append(kind, key, val)
						ref = AppendFrame(ref, kind, key, val)
						recs++
					}
					if int64(len(ref))-from > tailLead {
						overran++
					}
					if err := l.Commit(); err != nil {
						t.Fatal(err)
					}
					checkFile(step, from, false)
				}
			}
			extends += int(l.Stats().Extends)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			checkFile(60, 0, true)
			if overran == 0 || extends == 0 {
				t.Fatalf("seed %#x exercised %d burst(s) over the lead and %d extension(s); pick one that does both", seed, overran, extends)
			}
		})
	}
}

// Crash-point fault injection: simulate kill -9 at arbitrary write
// offsets by truncating a copy of a real log at seeded random cuts,
// then prove recovery returns exactly the acked frame-prefix — no op
// acknowledged under the always policy is lost, and no torn or
// duplicated record ever surfaces. Three more rounds are the shapes a
// crash leaves in a log that zero-fills ahead of its writes: the cut
// followed by zeros, a burst in flight with one sector that never
// landed, and garbage after a run of zeros. A last round flips single
// bytes (media corruption rather than a crash) and asserts the weaker
// prefix property: recovery still succeeds and yields some exact
// prefix of the issued stream.
package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/wal"
)

const (
	crashTruncTrials = 120
	crashFlipTrials  = 40
	crashSeed        = 0x5EED_C0DE
	crashStep        = 256 << 10 // the log's zero-fill step
	crashSector      = 512
)

// buildCrashLog runs a small always-fsync stream on a 1-shard cluster
// and returns the issued ops, the per-op cumulative frame end offsets,
// and the raw log bytes.
func buildCrashLog(t *testing.T) ([]testWrite, []int64, []byte) {
	t.Helper()
	dir := t.TempDir()
	c, err := New(Config{Shards: 1, Engine: kv.Config{Keys: 512, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	logs, _ := openLogs(t, dir, 1, wal.FsyncAlways)
	if err := c.AttachWAL(logs); err != nil {
		t.Fatal(err)
	}
	ws := writeStream(80)
	runWrites(t, c, ws, false)
	if err := c.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "shard-0.aof.1"))
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, len(ws))
	var off int64
	for i, w := range ws {
		off += int64(wal.FrameSize(len(w.key), len(w.value)))
		ends[i] = off
	}
	if off != int64(len(raw)) {
		t.Fatalf("frame math: computed %d bytes, log has %d", off, len(raw))
	}
	return ws, ends, raw
}

// ackedPrefix returns how many issued ops have their full frame within
// the first size bytes — exactly the ops whose always-policy ack could
// have been delivered before a crash at that file size.
func ackedPrefix(ends []int64, size int64) int {
	n := 0
	for _, e := range ends {
		if e <= size {
			n++
		}
	}
	return n
}

// assertRecordsArePrefix checks that got is exactly ws[:len(got)].
func assertRecordsArePrefix(t *testing.T, got []wal.Record, ws []testWrite, label string) {
	t.Helper()
	if len(got) > len(ws) {
		t.Fatalf("%s: recovered %d records from a %d-op stream (duplication)", label, len(got), len(ws))
	}
	for i, r := range got {
		w := ws[i]
		if r.Kind != w.kind || !bytes.Equal(r.Key, w.key) || !bytes.Equal(r.Value, w.value) {
			t.Fatalf("%s: record %d = {%d %q %q}, want {%d %q %q}",
				label, i, r.Kind, r.Key, r.Value, w.kind, w.key, w.value)
		}
	}
}

// crashImages are the shapes a kill -9 can leave, each a function from
// a seeded rng to a log image and the number of bytes of it that are
// the intact frame prefix (everything acknowledged is inside it).
var crashImages = []struct {
	name string
	make func(rng *rand.Rand, ends []int64, raw []byte) (image []byte, intact int64)
}{
	{"trunc", func(rng *rand.Rand, _ []int64, raw []byte) ([]byte, int64) {
		cut := int64(rng.Intn(len(raw) + 1))
		return raw[:cut], cut
	}},
	// Cut anywhere, then the zeros the log had filled ahead, up to the
	// next step boundary.
	{"trunc+padding", func(rng *rand.Rand, _ []int64, raw []byte) ([]byte, int64) {
		cut := int64(rng.Intn(len(raw) + 1))
		image := make([]byte, (cut/crashStep+1)*crashStep)
		copy(image, raw[:cut])
		return image, cut
	}},
	// A burst in flight over the zero-filled tail: everything before it
	// acknowledged, all of it written except one sector that stayed
	// zero, later frames of the burst intact behind the gap.
	{"zero sector", func(rng *rand.Rand, ends []int64, raw []byte) ([]byte, int64) {
		first := rng.Intn(len(ends))
		last := min(first+rng.Intn(16), len(ends)-1)
		acked := int64(0)
		if first > 0 {
			acked = ends[first-1]
		}
		image := make([]byte, crashStep)
		copy(image, raw[:ends[last]])
		at := (acked + rng.Int63n(ends[last]-acked)) / crashSector * crashSector
		clear(image[max(at, acked):min(at+crashSector, ends[last])])
		intact := ends[last]
		for i := acked; i < ends[last]; i++ {
			if image[i] != raw[i] {
				intact = i
				break
			}
		}
		return image, intact
	}},
	// Garbage after a run of zeros: the zeros are no clean end.
	{"zeros+garbage", func(rng *rand.Rand, _ []int64, raw []byte) ([]byte, int64) {
		cut := int64(rng.Intn(len(raw) + 1))
		image := make([]byte, cut+int64(1+rng.Intn(4096)), cut+8192)
		copy(image, raw[:cut])
		for n := 1 + rng.Intn(64); n > 0; n-- {
			image = append(image, byte(1+rng.Intn(255)))
		}
		return append(image, make([]byte, rng.Intn(64))...), cut
	}},
}

// TestCrashPointFaultInjection is the ISSUE acceptance gate: ≥100
// deterministic seeded crash images of every shape, each recovered
// independently, asserting the recovered stream is the exact acked
// frame-prefix, that the log reopens at its end, and that a record
// appended there is itself recovered by the next open.
func TestCrashPointFaultInjection(t *testing.T) {
	ws, ends, raw := buildCrashLog(t)
	scratch := t.TempDir()
	seg := filepath.Join(scratch, "shard-0.aof.1")

	for shape, sh := range crashImages {
		seed := crashSeed + int64(shape)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < crashTruncTrials; trial++ {
			image, intact := sh.make(rng, ends, raw)
			label := fmt.Sprintf("%s seed %#x trial %d (%d of %d bytes intact)", sh.name, seed, trial, intact, len(image))
			if err := os.WriteFile(seg, image, 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := wal.OpenShard(scratch, 0, wal.FsyncNo)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			got := rec.Records()
			want := ackedPrefix(ends, intact)
			if len(got) != want {
				t.Fatalf("%s: recovered %d records, want %d", label, len(got), want)
			}
			assertRecordsArePrefix(t, got, ws, label)
			validEnd := int64(0)
			if want > 0 {
				validEnd = ends[want-1]
			}
			// Torn is what is left after the whole frames and before the
			// trailing zeros; a torn remainder must be physically gone, a
			// zero-filled one is the reopened log's preallocation.
			wantTorn := int64(len(bytes.TrimRight(image[validEnd:], "\x00")))
			wantSize := int64(len(image))
			if wantTorn > 0 {
				wantSize = validEnd
			}
			if rec.TornBytes != wantTorn || (rec.TornErr != nil) != (wantTorn > 0) {
				t.Fatalf("%s: TornBytes=%d (err=%v), want %d", label, rec.TornBytes, rec.TornErr, wantTorn)
			}
			if st, err := os.Stat(seg); err != nil || st.Size() != wantSize || l.Stats().SizeBytes != validEnd {
				t.Fatalf("%s: reopened at byte %d of a %d-byte file (%v), want %d of %d",
					label, l.Stats().SizeBytes, st.Size(), err, validEnd, wantSize)
			}
			if trial%10 == 0 {
				verifyCrashReplay(t, rec, ws[:want], label)
			}
			// Appends resume on the frame boundary.
			l.Append(wal.RecSet, []byte("post"), []byte("crash"))
			if err := l.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			rec, err = wal.ReadShard(scratch, 0)
			if err != nil {
				t.Fatalf("%s: second open: %v", label, err)
			}
			if got = rec.Records(); len(got) != want+1 || rec.TornBytes != 0 || string(got[want].Key) != "post" {
				t.Fatalf("%s: after one more append: %d records (%d torn), want %d", label, len(got), rec.TornBytes, want+1)
			}
			assertRecordsArePrefix(t, got[:want], ws, label)
		}
	}

	rng := rand.New(rand.NewSource(crashSeed))
	for trial := 0; trial < crashFlipTrials; trial++ {
		if len(raw) == 0 {
			t.Fatal("empty log")
		}
		pos := rng.Intn(len(raw))
		bit := byte(1) << rng.Intn(8)
		cp := append([]byte(nil), raw...)
		cp[pos] ^= bit
		dir := filepath.Join(scratch, fmt.Sprintf("flip-%d", trial))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-0.aof.1"), cp, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := wal.OpenShard(dir, 0, wal.FsyncNo)
		if err != nil {
			t.Fatalf("flip trial %d (byte %d): open: %v", trial, pos, err)
		}
		assertRecordsArePrefix(t, rec.Records(), ws, fmt.Sprintf("flip trial %d byte %d", trial, pos))
		l.Close()
		os.RemoveAll(dir)
	}
}

// verifyCrashReplay replays rec into a fresh cluster and checks it
// against a reference cluster that executed the same prefix live.
func verifyCrashReplay(t *testing.T, rec *wal.Recovery, prefix []testWrite, label string) {
	t.Helper()
	cfg := kv.Config{Keys: 512, Index: kv.KindChainHash, Mode: kv.ModeSTLT, Seed: 42}
	recovered, err := New(Config{Shards: 1, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.ApplyRecovery(0, rec); err != nil {
		t.Fatalf("%s: apply: %v", label, err)
	}
	reference, err := New(Config{Shards: 1, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	runWrites(t, reference, prefix, false)
	assertClustersBitIdentical(t, recovered, reference, label)
}

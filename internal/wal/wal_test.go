package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Record{
		{Kind: RecSet, Key: []byte("k"), Value: []byte("v")},
		{Kind: RecSet, Key: []byte("key-xyz"), Value: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: RecDel, Key: []byte("gone")},
		{Kind: RecFlush},
		{Kind: RecLoad, Key: []byte("warm"), Value: []byte("loaded")},
		{Kind: RecSet, Key: []byte{}, Value: []byte{}},
	}
	var buf []byte
	for _, c := range cases {
		buf = AppendFrame(buf, c.Kind, c.Key, c.Value)
	}
	off := 0
	for i, c := range cases {
		rec, n, err := DecodeFrame(buf[off:])
		if err != nil || n == 0 {
			t.Fatalf("case %d: decode: n=%d err=%v", i, n, err)
		}
		if n != FrameSize(len(c.Key), len(c.Value)) {
			t.Fatalf("case %d: frame size %d, want %d", i, n, FrameSize(len(c.Key), len(c.Value)))
		}
		if rec.Kind != c.Kind || !bytes.Equal(rec.Key, c.Key) || !bytes.Equal(rec.Value, c.Value) {
			t.Fatalf("case %d: got %v %q=%q", i, rec.Kind, rec.Key, rec.Value)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	valid := AppendFrame(nil, RecSet, []byte("key"), []byte("value"))

	if _, n, err := DecodeFrame(nil); n != 0 || err != nil {
		t.Fatalf("empty input: n=%d err=%v, want clean end", n, err)
	}
	for cut := 1; cut < len(valid); cut++ {
		if _, _, err := DecodeFrame(valid[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err=%v, want ErrTruncated", cut, err)
		}
	}

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	if _, _, err := DecodeFrame(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err=%v, want ErrCorrupt", err)
	}

	giant := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(giant[0:], MaxPayload+1)
	if _, _, err := DecodeFrame(giant); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("giant length: err=%v, want ErrCorrupt", err)
	}

	// keyLen claiming more than the payload holds, with a fixed-up CRC
	// so only the structural check can catch it.
	evil := AppendFrame(nil, RecSet, []byte("abc"), []byte("de"))
	binary.LittleEndian.PutUint32(evil[frameHeaderSize+1:], 1<<30)
	payload := evil[frameHeaderSize:]
	binary.LittleEndian.PutUint32(evil[4:], crcOf(payload))
	if _, _, err := DecodeFrame(evil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized keyLen: err=%v, want ErrCorrupt", err)
	}

	// Unknown kind, CRC fixed up.
	badKind := AppendFrame(nil, RecSet, []byte("abc"), []byte("de"))
	badKind[frameHeaderSize] = 0x7F
	binary.LittleEndian.PutUint32(badKind[4:], crcOf(badKind[frameHeaderSize:]))
	if _, _, err := DecodeFrame(badKind); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: err=%v, want ErrCorrupt", err)
	}
}

func crcOf(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}

func TestScanTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 10; i++ {
		buf = AppendFrame(buf, RecSet, fmt.Appendf(nil, "key-%d", i), []byte("v"))
	}
	whole := int64(len(buf))
	res := Scan(buf)
	if res.Torn || len(res.Records) != 10 || res.Valid != whole {
		t.Fatalf("clean scan: torn=%v n=%d valid=%d", res.Torn, len(res.Records), res.Valid)
	}
	// Half a frame appended: scan keeps the 10 whole frames.
	torn := append(append([]byte(nil), buf...), AppendFrame(nil, RecSet, []byte("tail"), []byte("v"))[:9]...)
	res = Scan(torn)
	if !res.Torn || res.TornBytes != 9 || len(res.Records) != 10 || res.Valid != whole {
		t.Fatalf("torn scan: torn=%v n=%d valid=%d want %d", res.Torn, len(res.Records), res.Valid, whole)
	}
	// Zeros after the last whole frame are a preallocated tail, not a
	// torn one — however few, and whether or not torn bytes precede them.
	for _, pad := range []int{1, 7, 8, 4096} {
		res = Scan(append(append([]byte(nil), buf...), make([]byte, pad)...))
		if res.Torn || res.TornErr != nil || res.Padding != int64(pad) || len(res.Records) != 10 || res.Valid != whole {
			t.Fatalf("%d zeros: torn=%v (%v) padding=%d n=%d valid=%d", pad, res.Torn, res.TornErr, res.Padding, len(res.Records), res.Valid)
		}
		res = Scan(append(append([]byte(nil), torn...), make([]byte, pad)...))
		if res.TornBytes != 9 || res.TornErr == nil || res.Padding != int64(pad) || res.Valid != whole {
			t.Fatalf("torn + %d zeros: torn bytes=%d (%v) padding=%d valid=%d", pad, res.TornBytes, res.TornErr, res.Padding, res.Valid)
		}
	}
}

func collect(recs []Record) []string {
	var out []string
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%s:%s=%s", r.Kind, r.Key, r.Value))
	}
	return out
}

func TestOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := OpenShard(dir, 0, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshot)+len(rec.Tail) != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records()))
	}
	l.Append(RecLoad, []byte("warm"), []byte("w0"))
	l.Append(RecSet, []byte("a"), []byte("1"))
	l.Append(RecDel, []byte("a"), nil)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(RecFlush, nil, nil)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 4 || st.Commits != 2 || st.Fsyncs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := OpenShard(dir, 0, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"load:warm=w0", "set:a=1", "del:a=", "flushall:="}
	if got := collect(rec2.Tail); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenShard(dir, 3, FsyncNo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append(RecSet, fmt.Appendf(nil, "k%d", i), []byte("v"))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a frame at the tail.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	partial := AppendFrame(nil, RecSet, []byte("torn-key"), []byte("torn-value"))
	if _, err := f.Write(partial[:len(partial)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	l2, rec, err := OpenShard(dir, 3, FsyncNo)
	if err != nil {
		t.Fatalf("torn tail must not fail startup: %v", err)
	}
	defer l2.Close()
	if len(rec.Tail) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Tail))
	}
	if rec.TornBytes != int64(len(partial)-4) || rec.TornErr == nil {
		t.Fatalf("torn bytes = %d (err %v), want %d", rec.TornBytes, rec.TornErr, len(partial)-4)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-rec.TornBytes {
		t.Fatalf("segment not truncated: %d -> %d", before.Size(), after.Size())
	}
	// Appends continue on the truncated frame boundary.
	l2.Append(RecSet, []byte("post"), []byte("crash"))
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := OpenShard(dir, 3, FsyncNo)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec2.Tail); n != 6 {
		t.Fatalf("after continue: %d records, want 6", n)
	}
}

func TestRewriteCompactsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenShard(dir, 1, FsyncEverySec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Append(RecSet, fmt.Appendf(nil, "k%d", i%4), fmt.Appendf(nil, "v%d", i))
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Live state after those 20 sets: 4 keys, last-writer-wins.
	live := map[string]string{"k0": "v16", "k1": "v17", "k2": "v18", "k3": "v19"}
	err = l.RewriteKinds(func(add func(kind Kind, key, value []byte) error) error {
		for _, k := range []string{"k0", "k1", "k2", "k3"} {
			if err := add(RecLoad, []byte(k), []byte(live[k])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Gen != 2 || st.SizeBytes != 0 || st.Rewrites != 1 || st.LastSaveUnixNS == 0 {
		t.Fatalf("post-rewrite stats = %+v", st)
	}
	l.Append(RecSet, []byte("k9"), []byte("tail"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := OpenShard(dir, 1, FsyncEverySec)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Gen != 2 {
		t.Fatalf("recovered gen %d, want 2", rec.Gen)
	}
	if len(rec.Snapshot) != 4 || len(rec.Tail) != 1 {
		t.Fatalf("recovered %d snapshot + %d tail records", len(rec.Snapshot), len(rec.Tail))
	}
	for _, r := range rec.Snapshot {
		if r.Kind != RecLoad || live[string(r.Key)] != string(r.Value) {
			t.Fatalf("snapshot record %s %q=%q", r.Kind, r.Key, r.Value)
		}
	}
	if rec.Tail[0].Kind != RecSet || string(rec.Tail[0].Key) != "k9" {
		t.Fatalf("tail record = %+v", rec.Tail[0])
	}
	// Generation 1 files are gone.
	if _, err := os.Stat(segPath(dir, 1, 1)); !os.IsNotExist(err) {
		t.Fatalf("old segment survived rewrite")
	}
}

func TestCrashedRewriteDebrisIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenShard(dir, 0, FsyncNo)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(RecSet, []byte("a"), []byte("1"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A rewrite that died before its rename leaves a temporary.
	if err := os.WriteFile(tmpSnapPath(dir, 0), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenShard(dir, 0, FsyncNo)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 1 || rec.Gen != 1 {
		t.Fatalf("recovered gen %d with %d records", rec.Gen, len(rec.Tail))
	}
	if _, err := os.Stat(tmpSnapPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatal("rewrite debris not cleaned up")
	}
}

func TestDetectShards(t *testing.T) {
	dir := t.TempDir()
	if n, err := DetectShards(dir); n != 0 || err != nil {
		t.Fatalf("empty dir: n=%d err=%v", n, err)
	}
	if n, err := DetectShards(filepath.Join(dir, "missing")); n != 0 || err != nil {
		t.Fatalf("missing dir: n=%d err=%v", n, err)
	}
	for _, i := range []int{0, 1, 3} {
		l, _, err := OpenShard(dir, i, FsyncNo)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	if n, _ := DetectShards(dir); n != 4 {
		t.Fatalf("n=%d, want 4 (max index 3)", n)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"no": FsyncNo, "everysec": FsyncEverySec, "always": FsyncAlways} {
		p, err := ParsePolicy(s)
		if err != nil || p != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
		if p.String() != s {
			t.Fatalf("Policy(%v).String() = %q", p, p.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestAppendPathZeroAlloc pins the CI AllocsPerRun budget: with fsync
// policy no, the steady-state append+commit path allocates nothing
// (the pending buffer amortizes to its working size).
func TestAppendPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	l, _, err := OpenShard(t.TempDir(), 0, FsyncNo)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	key, val := []byte("alloc-test-key"), bytes.Repeat([]byte{'x'}, 128)
	// Warm the pending buffer to the burst working size.
	for i := 0; i < 32; i++ {
		l.Append(RecSet, key, val)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			l.Append(RecSet, key, val)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("append path allocates %.1f allocs per burst, want 0", allocs)
	}
}

func TestStickyWriteError(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenShard(dir, 0, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(RecSet, []byte("a"), []byte("1"))
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Close the fd behind the log's back: the next commit must fail and
	// the failure must stick.
	l.f.Close()
	l.Append(RecSet, []byte("b"), []byte("2"))
	if err := l.Commit(); err == nil {
		t.Fatal("commit on closed file succeeded")
	}
	if l.Err() == nil {
		t.Fatal("error did not stick")
	}
	if n := l.Append(RecSet, []byte("c"), []byte("3")); n != 0 {
		t.Fatal("append accepted after sticky error")
	}
}

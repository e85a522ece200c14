package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame throws corrupt bytes, truncations, and hostile
// length prefixes at the frame decoder. Invariants: the decoder never
// panics, never over-reads, and accepts exactly the canonical
// encoding — a successfully decoded frame re-encodes to the same
// bytes, so no two distinct frames alias one buffer prefix.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, RecSet, []byte("key"), []byte("value")))
	f.Add(AppendFrame(nil, RecDel, []byte("gone"), nil))
	f.Add(AppendFrame(nil, RecFlush, nil, nil))
	f.Add(AppendFrame(nil, RecLoad, bytes.Repeat([]byte{'k'}, 300), bytes.Repeat([]byte{'v'}, 1000)))
	two := AppendFrame(AppendFrame(nil, RecSet, []byte("a"), []byte("1")), RecDel, []byte("a"), nil)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})                // giant length prefix
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0, 0, 0, 0, 9, 0, 0, 0, 0}) // bad kind

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeFrame(b)
		switch {
		case err != nil:
			if n != 0 {
				t.Fatalf("error %v with n=%d", err, n)
			}
		case n == 0:
			if len(b) != 0 {
				t.Fatal("clean end on non-empty input")
			}
		default:
			if n > len(b) {
				t.Fatalf("decoder over-read: n=%d len=%d", n, len(b))
			}
			re := AppendFrame(nil, rec.Kind, rec.Key, rec.Value)
			if !bytes.Equal(re, b[:n]) {
				t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b[:n], re)
			}
		}

		// Scan must terminate, never over-count, and its records must
		// round-trip to exactly the valid prefix.
		res := Scan(b)
		if res.Valid+res.TornBytes+res.Padding != int64(len(b)) || res.Torn != (res.TornBytes > 0) ||
			res.Torn != (res.TornErr != nil) || !allZero(b[int64(len(b))-res.Padding:]) {
			t.Fatalf("scan: valid=%d torn=%v/%d (%v) padding=%d len=%d",
				res.Valid, res.Torn, res.TornBytes, res.TornErr, res.Padding, len(b))
		}
		var re []byte
		for _, r := range res.Records {
			re = AppendFrame(re, r.Kind, r.Key, r.Value)
		}
		if !bytes.Equal(re, b[:res.Valid]) {
			t.Fatal("scan records do not re-encode to the valid prefix")
		}
	})
}

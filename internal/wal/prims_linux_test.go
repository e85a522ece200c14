package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// BenchmarkHostSyncPrimitives prices what a durable commit can be made
// of on the filesystem under the package directory (t.TempDir is often
// a tmpfs, where a barrier is free): two files, one burst of 8 x 293
// bytes per sync, alternating — the durable-write workload's shape. It
// is the table in DESIGN.md §12; the last row is the Log itself. Keep
// -benchtime short enough that a file stays under the 256 MB the
// overwrite row fills in advance (4 s writes ~50 MB).
//
//	taskset -c 1 go test ./internal/wal -run '^$' -bench HostSyncPrimitives -benchtime 4s
func BenchmarkHostSyncPrimitives(b *testing.B) {
	const prefilled = 256 << 20
	key, val := bytes.Repeat([]byte{'k'}, 24), bytes.Repeat([]byte{'v'}, 256)
	var burst []byte
	for i := 0; i < 8; i++ {
		burst = AppendFrame(burst, RecSet, key, val)
	}
	scratch := func(b *testing.B) string {
		dir, err := os.MkdirTemp(".", "prims-")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { os.RemoveAll(dir) })
		return dir
	}
	for _, row := range []struct {
		name string
		prep func(f *os.File) error // before the clock starts
		sync func(f *os.File) error
	}{
		{"append+fsync", nil, (*os.File).Sync},
		{"append+fdatasync", nil, datasync},
		{"fallocate+fdatasync", func(f *os.File) error {
			return syscall.Fallocate(int(f.Fd()), 0, 0, prefilled)
		}, datasync},
		{"overwrite+fdatasync", func(f *os.File) (err error) {
			for off := int64(0); err == nil && off < prefilled; off += tailStep {
				_, err = f.WriteAt(zeroStep[:], off)
			}
			return err
		}, datasync},
	} {
		b.Run(row.name, func(b *testing.B) {
			dir := scratch(b)
			var files [2]*os.File
			for i := range files {
				f, err := os.Create(filepath.Join(dir, fmt.Sprint(i)))
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				if row.prep != nil {
					err = row.prep(f)
				}
				if err == nil {
					err = f.Sync()
				}
				if err != nil {
					b.Fatal(err)
				}
				files[i] = f
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				f, off := files[n%2], int64(n/2*len(burst))
				if _, err := f.WriteAt(burst, off); err != nil {
					b.Fatal(err)
				}
				if err := row.sync(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "syncs/s")
		})
	}
	b.Run("wal.Log", func(b *testing.B) {
		dir := scratch(b)
		var logs [2]*Log
		for i := range logs {
			l, _, err := OpenShard(dir, i, FsyncAlways)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			logs[i] = l
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			l := logs[n%2]
			for i := 0; i < 8; i++ {
				l.Append(RecSet, key, val)
			}
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "syncs/s")
		b.ReportMetric(float64(logs[0].Stats().Extends+logs[1].Stats().Extends)/float64(b.N), "extends/sync")
	})
}

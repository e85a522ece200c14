package wal

import (
	"os"
	"syscall"
)

// datasync is the log's barrier. fdatasync(2) flushes the file's data
// and whatever metadata reading it back needs — the size, when it
// changed — and skips only the timestamps an fsync would also journal.
func datasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}

//go:build !linux

package wal

import "os"

func datasync(f *os.File) error { return f.Sync() }

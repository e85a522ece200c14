//go:build !amd64 && !arm64

package vm

func prefetch(*byte) {}

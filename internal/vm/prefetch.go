//go:build amd64 || arm64

package vm

// prefetch asks the host to start loading the cache line holding *p
// into its L1 data cache (PREFETCHT0, PRFM PLDL1KEEP). It does not wait
// for the line and cannot fault.
//
//go:noescape
func prefetch(p *byte)

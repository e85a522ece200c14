// Package index implements the four production indexing structures of
// Table II — a Redis-dict-style chained hash table, a
// dense_hash_map-style open-addressing table, a red-black tree
// (std::map), and a cpp-btree-style B-tree — with all nodes, buckets,
// and records allocated in the *simulated* virtual memory, so that
// every pointer traversal is a timed access through the simulated
// TLB/cache hierarchy.
//
// All four satisfy Index: they map byte-string keys to records and
// return the record's simulated virtual address, the semantic the
// paper requires of any structure accelerated by the STLT ("they take
// a key as input and output the record matching the key").
package index

import (
	"addrkv/internal/arch"
	"addrkv/internal/cpu"
	"addrkv/internal/hashfn"
)

// Index is a key -> record mapping over simulated memory.
type Index interface {
	// Name identifies the structure (Table II naming).
	Name() string
	// Get looks the key up on the slow path and returns the record's
	// simulated VA. All traversal work is timed.
	Get(key []byte) (arch.Addr, bool)
	// Put inserts or updates key with value, returning the record VA
	// and whether an existing record had to move to a new VA (which
	// obliges the caller to refresh the STLT, Section III-F "Moving
	// records").
	Put(key, value []byte) PutResult
	// Delete removes the key, returning whether it was present. The
	// record storage is freed.
	Delete(key []byte) bool
	// Len returns the number of stored keys.
	Len() int
	// Range enumerates every stored record's VA functionally (no timed
	// accesses), stopping early when fn returns false. See range.go for
	// the ordering contract.
	Range(fn func(rec arch.Addr) bool)
}

// PutResult describes the outcome of a Put.
type PutResult struct {
	RecordVA arch.Addr
	// Inserted is true for a new key, false for an update.
	Inserted bool
	// Moved is true when an update relocated the record to a new VA.
	Moved bool
	// OldVA is the previous record VA when Moved.
	OldVA arch.Addr
}

// Context carries the simulated machine and the structure's own hash
// function (the slow-path hash: SipHash for Redis, MurmurHash for the
// kernel benchmarks).
type Context struct {
	M    *cpu.Machine
	Hash hashfn.Func
	Seed uint64
}

// HashKey hashes key with the structure's own hash function, charging
// its compute cost to CatHash.
func (c *Context) HashKey(key []byte) uint64 {
	c.M.Compute(c.Hash.Cost(len(key)), arch.CatHash)
	return c.Hash.Hash(key, c.Seed)
}

// keyCompareCost is the compute cost of a short memcmp (the memory
// traffic is charged separately by the timed reads).
func keyCompareCost(n int) arch.Cycles { return arch.Cycles(2 + n/8) }

// Package cluster scales kvserve past one process: N nodes own
// disjoint ranges of 16384 hash slots, exchange a versioned slot map
// over a small node-to-node bus, redirect misrouted commands with
// MOVED/ASK, and migrate slots live — streaming a slot's records to
// the destination while dual-serving, then atomically flipping
// ownership and re-warming the destination's STLT (the paper's
// insertSTLT() record-move step, at node scale).
//
// The layering mirrors the in-process shard cluster one level up:
// internal/shard routes keys to engines inside a node; this package
// routes keys to nodes, using the SAME hash (shard.RouteValue) so a
// slot's keys stay co-located per shard — with a power-of-two shard
// count, slot and shard are just different low-bit reductions of one
// hash value. Routing remains front-end work: no simulated cycles are
// charged for slot lookup or redirects, exactly as NIC steering is
// unmodeled inside a node.
package cluster

import "addrkv/internal/shard"

// NumSlots is the size of the hash-slot space. 2^14 keeps the slot
// map small enough to ship in one bus frame while giving migrations
// fine-grained units (a 1M-key store averages ~61 keys per slot).
const NumSlots = 16384

// SlotMask reduces a routing-hash value to a slot.
const SlotMask = NumSlots - 1

// SlotOf returns the hash slot of a key: the shard-routing hash
// (xxh64 with shard.RouteSeed) reduced to 14 bits. Clients, servers
// and the migrator all route through this one function.
func SlotOf(key []byte) uint16 {
	return uint16(shard.RouteValue(key) & SlotMask)
}

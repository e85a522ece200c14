// multitable demonstrates Section III-F's shared-STLT support: a
// process gets exactly ONE STLT, so an application with several
// indexing structures (here: a hash table for point lookups and a
// B-tree for ordered data) shares it by splicing a per-structure ID
// into the low bits of each hash integer (Figure 10), which removes
// key aliasing between the structures.
//
// This example drives the mechanism directly on the internal layers
// (OS + STLT + two indexes) to make each step visible.
//
//	go run ./examples/multitable
package main

import (
	"fmt"
	"log"

	"addrkv/internal/arch"
	"addrkv/internal/core"
	"addrkv/internal/cpu"
	"addrkv/internal/hashfn"
	"addrkv/internal/index"
)

func main() {
	m := cpu.New(arch.DefaultMachineParams())
	osm := core.NewOS(m)

	// One process, one STLT (a second STLTalloc would fail).
	stlt, err := osm.STLTAlloc(1<<14, 4)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := osm.STLTAlloc(1<<14, 4); err == nil {
		log.Fatal("expected: at most one STLT per process")
	} else {
		fmt.Println("second STLTalloc rejected (one per process):", err)
	}

	ctx := &index.Context{M: m, Hash: hashfn.Murmur64A, Seed: 7}
	users := index.NewChainHash(ctx, 1024) // structure ID 0
	orders := index.NewBTree(ctx)          // structure ID 1
	fast := hashfn.XXH3

	// The SAME key exists in both structures with different records.
	key := []byte("customer-0042-primary-ke")
	uRes := users.Put(key, []byte("user-record:alice"))
	oRes := orders.Put(key, []byte("order-record:#9931"))

	raw := fast.Hash(key, 99)
	intUsers := core.SpliceTableID(raw, 0, core.TableIDBits)
	intOrders := core.SpliceTableID(raw, 1, core.TableIDBits)
	fmt.Printf("\nraw integer:    %#016x\n", raw)
	fmt.Printf("users integer:  %#016x (ID 0 spliced into the sub-integer)\n", intUsers)
	fmt.Printf("orders integer: %#016x (ID 1)\n", intOrders)

	stlt.InsertSTLT(intUsers, uRes.RecordVA)
	stlt.InsertSTLT(intOrders, oRes.RecordVA)

	// Both structures now hit the shared STLT without aliasing.
	lookup := func(name string, integer uint64, want arch.Addr) {
		got := stlt.LoadVA(integer)
		status := "HIT"
		if got != want {
			status = "WRONG"
		}
		fmt.Printf("%-6s loadVA -> %v (%s)\n", name, got, status)
		if got != 0 && index.KeyMatches(m, got, key, arch.CatData) {
			val := index.ReadValueInto(m, got, nil)
			fmt.Printf("        validated, value = %q\n", val)
		}
	}
	fmt.Println()
	lookup("users", intUsers, uRes.RecordVA)
	lookup("orders", intOrders, oRes.RecordVA)

	// Without splicing, the two structures would collide on the raw
	// integer: whichever inserted last would win, and the other
	// structure's fast path would fetch the wrong record (caught only
	// by validation, wasting the probe).
	stlt.InsertSTLT(raw, uRes.RecordVA)
	stlt.InsertSTLT(raw, oRes.RecordVA) // overwrites: same sub-integer
	if got := stlt.LoadVA(raw); got == oRes.RecordVA {
		fmt.Println("\nwithout ID splicing: second insert overwrote the first (aliasing)")
	}

	fmt.Printf("\nSTLT stats: %+v\n", stlt.Stats)
}

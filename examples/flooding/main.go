// flooding demonstrates the security story of Section III-H: the STLT
// uses a cheap hash (xxh3) on its fast path, yet a hash-flooding
// attacker gains little — absent keys simply miss the STLT and fall back
// to the store's own SipHash-protected table. The same sequence (zipf
// traffic, a flood of absent keys, zipf traffic again) runs on the
// baseline and on a statically sized STLT, and prints cycles/op per
// phase: the flood costs the STLT a bounded probe per request, and the
// fast path pays again as soon as the flood stops.
//
//	go run ./examples/flooding
package main

import (
	"fmt"
	"log"

	"addrkv"
	"addrkv/internal/ycsb"
)

const (
	keys      = 40_000
	floodOps  = 40_000
	floodBase = 10_000_000 // key ids the store never holds
)

var phases = []string{"zipf", "flood", "zipf again"}

func main() {
	base, stlt := run(addrkv.ModeBaseline), run(addrkv.ModeSTLT)
	fmt.Printf("%-12s %9s %9s   (cycles/op)\n", "phase", "baseline", "stlt")
	for i, p := range phases {
		fmt.Printf("%-12s %9.0f %9.0f\n", p, base[i], stlt[i])
	}
	fmt.Printf("\nUnder the flood every STLT probe misses: %.0f cycles/op over the baseline,\n", stlt[1]-base[1])
	fmt.Println("one wasted probe per request, a bounded cost (paper, Section III-H). Once")
	fmt.Println("the flood stops the fast path pays again.")
}

// run builds a store in mode and returns the cycles/op of each phase.
func run(mode addrkv.Mode) []float64 {
	sys, err := addrkv.New(addrkv.Options{
		Keys:       keys,
		Index:      addrkv.IndexChainHash,
		Mode:       mode,
		RedisLayer: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.Load(keys, 64)
	eng := sys.Engine()
	legit := ycsb.NewGenerator(ycsb.Config{Keys: keys, ValueSize: 64, Dist: ycsb.Zipf, Seed: 1})
	zipf := func() {
		for i := 0; i < 3*keys; i++ {
			eng.RunOp(legit.Next(), 64)
		}
	}
	// The attacker fires GETs for keys that do not exist: the worst
	// case for the fast path, since every probe misses and every lookup
	// still walks the SipHash-protected dict.
	flood := func() {
		for i := uint64(0); i < floodOps; i++ {
			eng.GetTouch(ycsb.KeyName(floodBase + i))
		}
	}
	var cpo []float64
	for _, phase := range []func(){zipf, flood, zipf} {
		eng.MarkMeasurement()
		phase()
		cpo = append(cpo, eng.Stats().CyclesPerOp())
	}
	return cpo
}

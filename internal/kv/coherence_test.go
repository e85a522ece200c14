package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"addrkv/internal/ycsb"
)

// TestEngineCoherenceAgainstReference hammers every mode/index
// combination with a mixed GET/SET/DELETE stream, including value-size
// changes that force record moves, and checks results against a
// reference map on every GET. This is the end-to-end guarantee that
// the fast paths (STLT/SLB + validation + IPB + move/delete protocols)
// never serve stale data.
func TestEngineCoherenceAgainstReference(t *testing.T) {
	modes := []Mode{ModeBaseline, ModeSTLT, ModeSLB, ModeSTLTSW, ModeSTLTVA}
	kinds := AllIndexKinds()
	for _, mode := range modes {
		for _, kind := range kinds {
			mode, kind := mode, kind
			t.Run(string(mode)+"/"+string(kind), func(t *testing.T) {
				e, err := New(Config{Keys: 2000, Index: kind, Mode: mode, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				e.Load(1000, 64)
				ref := map[string][]byte{}
				for id := uint64(0); id < 1000; id++ {
					ref[string(ycsb.KeyName(id))] = ycsb.Value(id, 0, 64)
				}

				rng := rand.New(rand.NewSource(int64(len(mode)) * int64(len(kind))))
				for step := 0; step < 6000; step++ {
					id := uint64(rng.Intn(1400))
					k := ycsb.KeyName(id)
					switch rng.Intn(10) {
					case 0: // delete
						want := ref[string(k)] != nil
						if got := e.Delete(k); got != want {
							t.Fatalf("step %d: Delete(%d)=%v want %v", step, id, got, want)
						}
						delete(ref, string(k))
					case 1, 2: // set, sometimes with a size change (move)
						size := 64
						if rng.Intn(3) == 0 {
							size = 200 + rng.Intn(300)
						}
						v := ycsb.Value(id, uint32(step), size)
						e.Set(k, v)
						ref[string(k)] = v
					default: // get
						v, ok := e.GetInto(k, nil)
						want := ref[string(k)]
						if ok != (want != nil) {
							t.Fatalf("step %d: Get(%d) presence %v want %v (mode=%s)",
								step, id, ok, want != nil, mode)
						}
						if ok && !bytes.Equal(v, want) {
							t.Fatalf("step %d: Get(%d) stale/corrupt value (mode=%s kind=%s)",
								step, id, mode, kind)
						}
					}
				}
				if e.Idx.Len() != len(ref) {
					t.Fatalf("index holds %d keys, reference %d", e.Idx.Len(), len(ref))
				}
			})
		}
	}
}

// TestVariantOrdering checks the Figure 19 (left) ordering on a
// tree workload at test scale: SW <= VA <= full STLT in performance
// (cycles/op descending), with full STLT doing the fewest page walks.
func TestVariantOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const keys = 60000
	runOne := func(mode Mode) Stats {
		e, err := New(Config{Keys: keys, Index: KindRBTree, Mode: mode, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		e.Load(keys, 64)
		g := ycsb.NewGenerator(ycsb.Config{Keys: keys, ValueSize: 64, Dist: ycsb.Zipf, Seed: 3})
		for i := 0; i < 2*keys; i++ {
			e.RunOp(g.Next(), 64)
		}
		e.MarkMeasurement()
		for i := 0; i < 16000; i++ {
			e.RunOp(g.Next(), 64)
		}
		return e.Stats()
	}
	sw := runOne(ModeSTLTSW)
	va := runOne(ModeSTLTVA)
	full := runOne(ModeSTLT)

	if !(full.Machine.Cycles < va.Machine.Cycles) {
		t.Errorf("full STLT (%d) not faster than STLT-VA (%d)", full.Machine.Cycles, va.Machine.Cycles)
	}
	if !(va.Machine.Cycles < sw.Machine.Cycles) {
		t.Errorf("STLT-VA (%d) not faster than STLT-SW (%d)", va.Machine.Cycles, sw.Machine.Cycles)
	}
	if !(full.Machine.PageWalks < va.Machine.PageWalks) {
		t.Errorf("full STLT walks (%d) not below VA-only (%d): the STB should be skipping walks",
			full.Machine.PageWalks, va.Machine.PageWalks)
	}
}

func TestModeString(t *testing.T) {
	// Modes are plain strings used in flags; keep them stable.
	for _, m := range []Mode{ModeBaseline, ModeSTLT, ModeSLB, ModeSTLTSW, ModeSTLTVA} {
		if m == "" {
			t.Fatal("empty mode constant")
		}
	}
	if fmt.Sprint(ModeSTLT) != "stlt" {
		t.Fatal("mode constant changed")
	}
}

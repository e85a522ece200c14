package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"addrkv/internal/arch"
	"addrkv/internal/setassoc"
	"addrkv/internal/vm"
)

// wayState is one valid way of a set as either layout holds it.
type wayState struct {
	way      int
	vpn, lru uint64
	pte      vm.PTE
	pf       bool
}

func (t *TLB) resident(s int) (out []wayState) {
	set := &t.data[s]
	for i := 0; i < arch.TLBWays; i++ {
		if w := set[i]; w != 0 {
			out = append(out, wayState{i, w&setassoc.TagMask - 1, set[arch.TLBWays+i], vm.PTE(set[2*arch.TLBWays+i]), w&setassoc.FlagPrefetched != 0})
		}
	}
	return out
}

func (t *refTLB) resident(s int) (out []wayState) {
	for i, w := range t.data[s*t.ways : (s+1)*t.ways] {
		if w.valid {
			out = append(out, wayState{i, w.vpn, w.lru, w.pte, w.prefetched})
		}
	}
	return out
}

// TestTLBMatchesReference drives a TLB and the reference in lock-step:
// 200 k calls per geometry over a page pool small enough to collide,
// with page numbers above 2^32 in the mix (the 64-bit leg of the set
// index) and the non-power-of-two 384-set L2 among the geometries.
// Every return value, every counter and the touched set must agree
// after every call. Every TLB is arch.TLBWays-way, so only the set
// count varies.
func TestTLBMatchesReference(t *testing.T) {
	for _, sets := range []int{16, 384, 1, 3, 8} {
		g := struct{ sets, ways int }{sets, arch.TLBWays}
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			n, r := New("new", g.sets*g.ways), newRef("ref", g.sets*g.ways, g.ways)
			rng := rand.New(rand.NewSource(int64(g.sets*31 + g.ways)))
			pool := make([]uint64, 3*g.sets*g.ways+2)
			for i := range pool {
				pool[i] = uint64(rng.Intn(4*g.sets*g.ways + 4))
				switch rng.Intn(4) {
				case 0:
					pool[i] += 1 << 32 // just past the 32-bit modulo
				case 1:
					pool[i] |= uint64(rng.Intn(1<<19)) << 33 // up to 2^52
				}
			}
			for step := 0; step < 200_000; step++ {
				vpn := pool[rng.Intn(len(pool))]
				pte := vm.PTE(rng.Uint64())
				var op string
				var got, want any
				switch k := rng.Intn(100); {
				case k < 45:
					gp, gok := n.Lookup(vpn)
					wp, wok := r.Lookup(vpn)
					op, got, want = "Lookup", [2]any{gp, gok}, [2]any{wp, wok}
				case k < 78:
					op = "Insert"
					n.Insert(vpn, pte)
					r.Insert(vpn, pte)
				case k < 86:
					op = "InsertPrefetched"
					n.InsertPrefetched(vpn, pte)
					r.InsertPrefetched(vpn, pte)
				case k < 91:
					op, got, want = "Probe", n.Probe(vpn), r.Probe(vpn)
				case k < 97:
					op, got, want = "InvalidatePage", n.InvalidatePage(vpn), r.InvalidatePage(vpn)
				case k < 99:
					op = "ResetStats"
					n.ResetStats()
					r.ResetStats()
				default:
					if rng.Intn(20) != 0 { // rarely: it empties the TLB
						continue
					}
					op = "Flush"
					n.Flush()
					r.Flush()
				}
				if got != want {
					t.Fatalf("step %d %s(%#x): new returned %v, reference %v", step, op, vpn, got, want)
				}
				if n.Hits != r.Hits || n.Misses != r.Misses || n.PrefetchHits != r.PrefetchHits || n.tick != r.tick {
					t.Fatalf("step %d %s(%#x): counters new %d/%d/%d tick %d, reference %d/%d/%d tick %d", step, op, vpn,
						n.Hits, n.Misses, n.PrefetchHits, n.tick, r.Hits, r.Misses, r.PrefetchHits, r.tick)
				}
				s := int(vpn % uint64(g.sets))
				if gs, ws := n.resident(s), r.resident(s); !slices.Equal(gs, ws) {
					t.Fatalf("step %d %s(%#x): set %d holds\n new %+v\n ref %+v", step, op, vpn, s, gs, ws)
				}
			}
			for s := 0; s < g.sets; s++ {
				if gs, ws := n.resident(s), r.resident(s); !slices.Equal(gs, ws) {
					t.Fatalf("after the run, set %d holds\n new %+v\n ref %+v", s, gs, ws)
				}
			}
		})
	}
}

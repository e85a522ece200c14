// The standard YCSB core workloads A–F (Cooper et al., SoCC 2010,
// Table 2) plus a hot-key flood, as operation-mix presets over the
// paper's distributions. The original evaluation uses only the
// GET/SET mixes of ycsb.go; these presets widen the scenario coverage
// to scans, inserts and read-modify-writes so the SCAN/TTL/eviction
// paths see realistic traffic shapes.
package ycsb

import "fmt"

// Hotspot is the flood distribution: HotOpFrac of the requests target
// the HotKeyFrac fraction of the keyspace (YCSB's HotspotGenerator).
const Hotspot Distribution = "hotspot"

// Mix is an operation-mix preset: per-verb fractions (summing to 1)
// over a request distribution.
type Mix struct {
	// Name is the preset's label ("A".."F", "flood").
	Name string
	// Read/Update/Insert/Scan/RMW are the op-type fractions.
	Read   float64
	Update float64
	Insert float64
	Scan   float64
	RMW    float64
	// Dist picks the key distribution.
	Dist Distribution
	// MaxScanLen bounds Scan page lengths (uniform in [1, MaxScanLen]).
	MaxScanLen int
	// Hotspot shape, meaningful only with Dist == Hotspot.
	HotOpFrac  float64
	HotKeyFrac float64
}

// Mixes returns the standard presets: YCSB A–F plus the hot-key flood.
func Mixes() []Mix {
	return []Mix{
		{Name: "A", Read: 0.5, Update: 0.5, Dist: Zipf},
		{Name: "B", Read: 0.95, Update: 0.05, Dist: Zipf},
		{Name: "C", Read: 1.0, Dist: Zipf},
		{Name: "D", Read: 0.95, Insert: 0.05, Dist: Latest},
		{Name: "E", Scan: 0.95, Insert: 0.05, Dist: Zipf, MaxScanLen: 100},
		{Name: "F", Read: 0.5, RMW: 0.5, Dist: Zipf},
		// The flood: 90% of a read-heavy stream hammers 0.1% of the
		// keys — the regime where the STLT fast-path hash quality
		// (SipHash vs xxh3) decides the hit rate under churn.
		{Name: "flood", Read: 0.9, Update: 0.1, Dist: Hotspot,
			HotOpFrac: 0.9, HotKeyFrac: 0.001},
	}
}

// MixByName resolves a preset by its (case-sensitive) name.
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("ycsb: unknown workload %q (want A..F or flood)", name)
}

// MixGenerator produces a deterministic operation stream for a Mix.
// Inserts extend the keyspace exactly like the latest distribution's
// SETs do, so workloads D and E grow their horizon as YCSB specifies.
type MixGenerator struct {
	mix Mix
	rng rng

	zipf   *zipfGen
	latest *latestGen

	// keys is the initial keyspace (the hot-set base for Hotspot);
	// keyCount grows with inserts.
	keys     uint64
	keyCount uint64
}

// NewMixGenerator builds a generator over an initial keyspace of keys.
func NewMixGenerator(mix Mix, keys int, seed uint64) *MixGenerator {
	if keys <= 0 {
		panic("ycsb: keys must be positive")
	}
	g := &MixGenerator{
		mix:      mix,
		rng:      newRNG(seed),
		keys:     uint64(keys),
		keyCount: uint64(keys),
	}
	switch mix.Dist {
	case Zipf:
		g.zipf = newZipfGen(uint64(keys), zipfTheta)
	case Latest:
		g.latest = newLatestGen(uint64(keys))
	case Uniform, Hotspot:
		// nothing to precompute
	default:
		panic(fmt.Sprintf("ycsb: unknown distribution %q", mix.Dist))
	}
	return g
}

// Next produces the next operation.
func (g *MixGenerator) Next() Op {
	r := g.rng.float64()
	m := &g.mix
	switch {
	case r < m.Read:
		return Op{Type: Get, KeyID: g.pick()}
	case r < m.Read+m.Update:
		return Op{Type: Set, KeyID: g.pick()}
	case r < m.Read+m.Update+m.Insert:
		id := g.keyCount
		g.keyCount++
		if g.zipf != nil {
			g.zipf.grow(g.keyCount)
		}
		if g.latest != nil {
			g.latest.grow(g.keyCount)
		}
		return Op{Type: Insert, KeyID: id}
	case r < m.Read+m.Update+m.Insert+m.Scan:
		n := 1 + int(g.rng.uint64n(uint64(m.MaxScanLen)))
		return Op{Type: Scan, KeyID: g.pick(), ScanLen: n}
	default:
		return Op{Type: RMW, KeyID: g.pick()}
	}
}

// pick samples an existing key id under the mix's distribution.
func (g *MixGenerator) pick() uint64 {
	switch g.mix.Dist {
	case Zipf:
		return scramble(g.zipf.next(&g.rng), g.keyCount)
	case Uniform:
		return g.rng.uint64n(g.keyCount)
	case Latest:
		return g.latest.next(&g.rng, g.keyCount)
	case Hotspot:
		hot := uint64(float64(g.keys) * g.mix.HotKeyFrac)
		if hot == 0 {
			hot = 1
		}
		if g.rng.float64() < g.mix.HotOpFrac || hot >= g.keyCount {
			// Ids 0..hot-1 ARE scattered keys: KeyName scrambles every
			// id through FNV, so the hot set spreads across shards.
			return g.rng.uint64n(hot)
		}
		return hot + g.rng.uint64n(g.keyCount-hot)
	}
	panic("unreachable")
}

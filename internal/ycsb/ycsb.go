// Package ycsb generates YCSB-style key-value workloads (Cooper et
// al., SoCC 2010) matching the paper's Section IV-A methodology:
// 24-byte keys, configurable value sizes (64/128/256 bytes), and three
// request distributions — scrambled zipfian with theta 0.99, "latest"
// (favoring recently inserted keys, with 5% SETs), and uniform.
package ycsb

import (
	"fmt"
	"math"
)

// Distribution selects a request distribution.
type Distribution string

// The three distributions of Section IV-A.
const (
	Zipf    Distribution = "zipf"
	Latest  Distribution = "latest"
	Uniform Distribution = "uniform"
)

// Distributions lists all supported distributions.
func Distributions() []Distribution { return []Distribution{Zipf, Latest, Uniform} }

// ParseDistribution validates a distribution name.
func ParseDistribution(s string) (Distribution, error) {
	switch Distribution(s) {
	case Zipf, Latest, Uniform:
		return Distribution(s), nil
	}
	return "", fmt.Errorf("ycsb: unknown distribution %q", s)
}

// OpType is a request type.
type OpType uint8

// Request types. Get/Set are the paper's original mix; Insert, Scan
// and RMW (read-modify-write) complete the standard YCSB A–F verbs
// (see workloads.go).
const (
	Get OpType = iota
	Set
	Insert
	Scan
	RMW
)

// Op is one generated request. KeyID identifies the logical key (see
// KeyName); for Set ops on the latest distribution KeyID may equal the
// current key count, meaning "insert a fresh key". For Scan ops KeyID
// is the start key and ScanLen the page length.
type Op struct {
	Type    OpType
	KeyID   uint64
	ScanLen int
}

// Config shapes a workload.
type Config struct {
	// Keys is the number of distinct keys loaded before the run.
	Keys int
	// ValueSize is the value payload size in bytes.
	ValueSize int
	// Dist is the request distribution.
	Dist Distribution
	// SetFraction is the fraction of SET operations; the paper uses
	// 0 for zipf/uniform and 0.05 for latest.
	SetFraction float64
	// Seed makes the stream deterministic.
	Seed uint64
}

// WithPaperSetFraction applies the paper's rule: 5% SETs for latest,
// all-GET otherwise.
func (c Config) WithPaperSetFraction() Config {
	if c.Dist == Latest {
		c.SetFraction = 0.05
	} else {
		c.SetFraction = 0
	}
	return c
}

// Generator produces a deterministic operation stream.
type Generator struct {
	cfg Config
	rng rng

	zipf   *zipfGen
	latest *latestGen

	// keyCount is the current number of existing keys (grows when the
	// latest distribution inserts).
	keyCount uint64
}

// NewGenerator builds a generator for cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.Keys <= 0 {
		panic("ycsb: Keys must be positive")
	}
	g := &Generator{cfg: cfg, rng: newRNG(cfg.Seed), keyCount: uint64(cfg.Keys)}
	switch cfg.Dist {
	case Zipf:
		g.zipf = newZipfGen(uint64(cfg.Keys), zipfTheta)
	case Latest:
		g.latest = newLatestGen(uint64(cfg.Keys))
	case Uniform:
		// nothing to precompute
	default:
		panic(fmt.Sprintf("ycsb: unknown distribution %q", cfg.Dist))
	}
	return g
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	isSet := g.cfg.SetFraction > 0 && g.rng.float64() < g.cfg.SetFraction
	switch g.cfg.Dist {
	case Zipf:
		id := g.zipf.next(&g.rng)
		id = scramble(id, uint64(g.cfg.Keys))
		return Op{Type: opType(isSet), KeyID: id}
	case Uniform:
		id := g.rng.uint64n(uint64(g.cfg.Keys))
		return Op{Type: opType(isSet), KeyID: id}
	case Latest:
		if isSet {
			// Insert a brand-new key, advancing the "latest" horizon
			// (YCSB's insert behaviour for workload D).
			id := g.keyCount
			g.keyCount++
			g.latest.grow(g.keyCount)
			return Op{Type: Set, KeyID: id}
		}
		return Op{Type: Get, KeyID: g.latest.next(&g.rng, g.keyCount)}
	}
	panic("unreachable")
}

func opType(isSet bool) OpType {
	if isSet {
		return Set
	}
	return Get
}

// KeyName renders the canonical 24-byte key for id: "user" followed by
// a zero-padded scrambled decimal, YCSB's user-key format.
func KeyName(id uint64) []byte {
	var b [KeyLen]byte
	KeyNameInto(b[:], id)
	out := make([]byte, KeyLen)
	copy(out, b[:])
	return out
}

// KeyNameInto renders KeyName(id) into buf (len >= KeyLen) without
// allocating; it returns buf[:KeyLen].
func KeyNameInto(buf []byte, id uint64) []byte {
	_ = buf[KeyLen-1]
	buf[0], buf[1], buf[2], buf[3] = 'u', 's', 'e', 'r'
	v := fnv64(id)
	for i := KeyLen - 1; i >= 4; i-- {
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return buf[:KeyLen]
}

// KeyLen is the fixed key length produced by KeyName.
const KeyLen = 24

// Value renders a deterministic value payload of n bytes for a key id
// and version (so updates change the bytes).
func Value(id uint64, version uint32, n int) []byte {
	return ValueInto(make([]byte, n), id, version)
}

// ValueInto renders Value(id, version, len(buf)) into buf without
// allocating and returns buf.
func ValueInto(buf []byte, id uint64, version uint32) []byte {
	state := fnv64(id ^ uint64(version)<<40 ^ 0xabcdef)
	for i := range buf {
		state = state*6364136223846793005 + 1442695040888963407
		buf[i] = byte(state >> 56)
	}
	return buf
}

// fnv64 is FNV-1a over the 8 bytes of x, YCSB's key scrambler.
func fnv64(x uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime
		x >>= 8
	}
	return h
}

// scramble spreads a zipfian rank over the key space, YCSB's
// ScrambledZipfianGenerator.
func scramble(rank, n uint64) uint64 { return fnv64(rank) % n }

// --- zipfian generator (Gray et al., as used by YCSB) ---

const zipfTheta = 0.99

type zipfGen struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	zeta2 float64
	eta   float64
	rank1 float64 // uz below this (and at least 1) draws rank 1
}

func newZipfGen(n uint64, theta float64) *zipfGen {
	z := &zipfGen{n: n, theta: theta, rank1: 1 + math.Pow(0.5, theta)}
	z.alpha = 1 / (1 - theta)
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// next samples a rank in [0, n) with rank 0 most popular.
func (z *zipfGen) next(r *rng) uint64 {
	u := r.float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// grow extends the generator to n items using incremental zeta.
func (z *zipfGen) grow(n uint64) {
	if n <= z.n {
		return
	}
	for i := z.n + 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	z.n = n
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// --- latest generator ---

// latestGen is YCSB's SkewedLatestGenerator: a zipfian over recency —
// the most recently inserted keys are the most popular.
type latestGen struct {
	z *zipfGen
}

func newLatestGen(n uint64) *latestGen {
	return &latestGen{z: newZipfGen(n, zipfTheta)}
}

func (l *latestGen) grow(n uint64) { l.z.grow(n) }

// next returns a key id biased toward keyCount-1 (the newest key).
func (l *latestGen) next(r *rng, keyCount uint64) uint64 {
	off := l.z.next(r)
	if off >= keyCount {
		off = keyCount - 1
	}
	return keyCount - 1 - off
}

// --- deterministic RNG (splitmix64 / xorshift) ---

type rng struct{ state uint64 }

func newRNG(seed uint64) rng { return rng{state: seed*2685821657736338717 + 1} }

func (r *rng) uint64() uint64 {
	// splitmix64
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) uint64n(n uint64) uint64 { return r.uint64() % n }

func (r *rng) float64() float64 {
	return float64(r.uint64()>>11) / float64(1<<53)
}

package ycsb

import (
	"math"
	"testing"
)

func TestKeyNameFormat(t *testing.T) {
	k := KeyName(42)
	if len(k) != KeyLen {
		t.Fatalf("key length %d, want %d", len(k), KeyLen)
	}
	if string(k[:4]) != "user" {
		t.Fatalf("prefix %q", k[:4])
	}
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			t.Fatalf("non-digit in key: %q", k)
		}
	}
}

func TestKeyNameDeterministicAndDistinct(t *testing.T) {
	seen := map[string]uint64{}
	for id := uint64(0); id < 100000; id++ {
		k := string(KeyName(id))
		if prev, dup := seen[k]; dup {
			t.Fatalf("ids %d and %d share key %q", prev, id, k)
		}
		seen[k] = id
	}
	if string(KeyName(7)) != string(KeyName(7)) {
		t.Fatal("KeyName not deterministic")
	}
}

func TestKeyNameIntoMatchesKeyName(t *testing.T) {
	var buf [KeyLen]byte
	for id := uint64(0); id < 1000; id += 37 {
		if string(KeyNameInto(buf[:], id)) != string(KeyName(id)) {
			t.Fatalf("mismatch at id %d", id)
		}
	}
}

func TestValueDeterministicVersioned(t *testing.T) {
	a := Value(5, 0, 64)
	b := Value(5, 0, 64)
	c := Value(5, 1, 64)
	if string(a) != string(b) {
		t.Fatal("Value not deterministic")
	}
	if string(a) == string(c) {
		t.Fatal("version ignored")
	}
	if len(Value(5, 0, 256)) != 256 {
		t.Fatal("size ignored")
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(Config{Keys: 10000, ValueSize: 64, Dist: Zipf, Seed: 1})
	counts := map[uint64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Type != Get {
			t.Fatal("zipf workload emitted a SET without SetFraction")
		}
		if op.KeyID >= 10000 {
			t.Fatalf("key id %d out of range", op.KeyID)
		}
		counts[op.KeyID]++
	}
	// Top key should take a few percent of traffic; a uniform draw
	// would give each key 0.01%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.01 {
		t.Fatalf("top key share %.4f too small for zipf(0.99)", float64(max)/n)
	}
	// Coverage should be partial (hot set), far below all keys... but
	// with 20x ops per key uniform would cover everything; zipf still
	// covers much less than 100%.
	if len(counts) == 10000 {
		t.Log("warning: zipf covered every key; acceptable but unusual")
	}
}

func TestUniformCoverage(t *testing.T) {
	g := NewGenerator(Config{Keys: 1000, ValueSize: 64, Dist: Uniform, Seed: 1})
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next().KeyID]++
	}
	mean := float64(n) / 1000
	var varsum float64
	for _, c := range counts {
		d := float64(c) - mean
		varsum += d * d
	}
	cv := math.Sqrt(varsum/1000) / mean
	if cv > 0.25 {
		t.Fatalf("uniform coefficient of variation %.3f too high", cv)
	}
}

func TestLatestFavorsNewKeys(t *testing.T) {
	cfg := Config{Keys: 10000, ValueSize: 64, Dist: Latest, Seed: 3, SetFraction: 0.05}
	g := NewGenerator(cfg)
	var newest, oldest int
	sets := 0
	const n = 100000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Type == Set {
			sets++
			continue
		}
		switch {
		case op.KeyID >= g.KeyCount()-g.KeyCount()/10:
			newest++
		case op.KeyID < g.KeyCount()/10:
			oldest++
		}
	}
	if sets == 0 {
		t.Fatal("latest workload produced no SETs at 5%")
	}
	ratio := float64(sets) / n
	if ratio < 0.03 || ratio > 0.07 {
		t.Fatalf("SET fraction = %.3f, want ~0.05", ratio)
	}
	if newest <= 10*oldest {
		t.Fatalf("latest skew wrong: newest-decile %d vs oldest-decile %d", newest, oldest)
	}
	if g.KeyCount() <= 10000 {
		t.Fatal("latest inserts did not grow the key space")
	}
}

func TestLatestInsertsSequentialIDs(t *testing.T) {
	g := NewGenerator(Config{Keys: 100, ValueSize: 64, Dist: Latest, Seed: 3, SetFraction: 0.5})
	next := uint64(100)
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.Type == Set {
			if op.KeyID != next {
				t.Fatalf("insert id %d, want %d", op.KeyID, next)
			}
			next++
		} else if op.KeyID >= next {
			t.Fatalf("GET of not-yet-inserted key %d", op.KeyID)
		}
	}
}

func TestDeterminismAcrossGenerators(t *testing.T) {
	a := NewGenerator(Config{Keys: 1000, Dist: Zipf, Seed: 9, ValueSize: 64})
	b := NewGenerator(Config{Keys: 1000, Dist: Zipf, Seed: 9, ValueSize: 64})
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestParseDistribution(t *testing.T) {
	for _, d := range Distributions() {
		got, err := ParseDistribution(string(d))
		if err != nil || got != d {
			t.Errorf("ParseDistribution(%q) = %v, %v", d, got, err)
		}
	}
	if _, err := ParseDistribution("pareto"); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestWithPaperSetFraction(t *testing.T) {
	if f := (Config{Dist: Latest}).WithPaperSetFraction().SetFraction; f != 0.05 {
		t.Errorf("latest SET fraction = %v", f)
	}
	if f := (Config{Dist: Zipf}).WithPaperSetFraction().SetFraction; f != 0 {
		t.Errorf("zipf SET fraction = %v", f)
	}
}

func TestZipfGrowIncremental(t *testing.T) {
	// Incremental zeta must match a from-scratch computation.
	a := newZipfGen(1000, zipfTheta)
	a.grow(1500)
	b := newZipfGen(1500, zipfTheta)
	if math.Abs(a.zetan-b.zetan) > 1e-9 {
		t.Fatalf("incremental zeta %v vs direct %v", a.zetan, b.zetan)
	}
}

// streamHash folds the first n ops of a stream (type and key id) into
// one FNV-1a word.
func streamHash(next func() Op, n int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		op := next()
		h = (h ^ uint64(op.Type)) * 1099511628211
		h = (h ^ op.KeyID) * 1099511628211
	}
	return h
}

// TestKeySequencePinned holds the generated key sequence, and with it
// every modeled number downstream, to values recorded at cccfd15 —
// before zipfGen.next stopped recomputing its one constant per draw.
// D is the latest distribution with inserts (zipfGen.grow), flood the
// hotspot one.
func TestKeySequencePinned(t *testing.T) {
	const keys, n = 100_000, 100_000
	mix := func(name string) Mix {
		m, err := MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		seed uint64
		next func() Op
		want uint64
	}{
		{"zipf", 1, NewGenerator(Config{Keys: keys, Dist: Zipf, Seed: 1}).Next, 0x4714c083f09932c2},
		{"zipf", 42, NewGenerator(Config{Keys: keys, Dist: Zipf, Seed: 42}).Next, 0x7e27057e79d8d119},
		{"latest", 1, NewGenerator(Config{Keys: keys, Dist: Latest, Seed: 1}.WithPaperSetFraction()).Next, 0x278ad0bda34eb955},
		{"latest", 42, NewGenerator(Config{Keys: keys, Dist: Latest, Seed: 42}.WithPaperSetFraction()).Next, 0x89ca8a4f09506fec},
		{"mix-D", 1, NewMixGenerator(mix("D"), keys, 1).Next, 0x80afd39a3ff6cb06},
		{"mix-D", 42, NewMixGenerator(mix("D"), keys, 42).Next, 0xf824a4fe319f2e74},
		{"hotspot", 1, NewMixGenerator(mix("flood"), keys, 1).Next, 0x6ca70d7d5aee69b6},
		{"hotspot", 42, NewMixGenerator(mix("flood"), keys, 42).Next, 0xf323a820d79c959e},
	} {
		if got := streamHash(tc.next, n); got != tc.want {
			t.Errorf("%s seed %d: first %d ops hash to %#x, recorded %#x", tc.name, tc.seed, n, got, tc.want)
		}
	}
}

// KeyCount returns the current number of keys (including ones inserted
// by the stream itself).
func (g *Generator) KeyCount() uint64 { return g.keyCount }

// KeyCount returns the current keyspace size (including inserts).
func (g *MixGenerator) KeyCount() uint64 { return g.keyCount }

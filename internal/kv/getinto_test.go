package kv

import (
	"bytes"
	"testing"

	"addrkv/internal/ycsb"
)

// TestGetIntoBufferIsInvisible: the caller's buffer is only where the
// value lands. Two identically configured engines, one reading into a
// fresh buffer each time and one reusing its own, return the same values
// and hits/misses, and bit-for-bit the same modeled cycles and counters.
func TestGetIntoBufferIsInvisible(t *testing.T) {
	cfg := Config{Keys: 4000, Index: KindChainHash, Mode: ModeSTLT, Seed: 3, RedisLayer: true}
	ea, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea.Load(4000, 64)
	eb.Load(4000, 64)

	g := ycsb.NewGenerator(ycsb.Config{Keys: 4000, ValueSize: 64, Dist: ycsb.Zipf, Seed: 11})
	var buf []byte
	for i := 0; i < 8000; i++ {
		op := g.Next()
		key := ycsb.KeyName(op.KeyID)
		va, oka := ea.GetInto(key, nil)
		vb, okb := eb.GetInto(key, buf[:0])
		buf = vb[:0]
		if oka != okb || !bytes.Equal(va, vb) {
			t.Fatalf("op %d key %s: fresh buffer (%q,%v) vs reused (%q,%v)", i, key, va, oka, vb, okb)
		}
	}
	// Absent key takes the miss path identically.
	if _, ok := ea.GetInto([]byte("nosuchkey"), nil); ok {
		t.Fatal("unexpected hit")
	}
	if _, ok := eb.GetInto([]byte("nosuchkey"), buf); ok {
		t.Fatal("unexpected hit")
	}
	sa, sb := ea.Stats(), eb.Stats()
	if sa != sb {
		t.Fatalf("stats diverged:\nfresh:  %+v\nreused: %+v", sa, sb)
	}
}

// TestGetIntoZeroAlloc pins the engine-side allocation budget: with a
// warm value buffer, GetInto, Set (same-size update), Exists and
// Delete+Set cycles are allocation-free.
func TestGetIntoZeroAlloc(t *testing.T) {
	e, err := New(Config{Keys: 4000, Index: KindChainHash, Mode: ModeSTLT, RedisLayer: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(4000, 64)
	key := []byte(ycsb.KeyName(123))
	val := ycsb.Value(123, 1, 64)
	buf := make([]byte, 0, 128)
	for i := 0; i < 100; i++ { // warm the fast path
		buf, _ = e.GetInto(key, buf[:0])
	}
	for name, f := range map[string]func(){
		"GetInto": func() { buf, _ = e.GetInto(key, buf[:0]) },
		"Set":     func() { e.Set(key, val) },
		"Exists":  func() { e.Exists(key) },
	} {
		if n := testing.AllocsPerRun(2000, f); n != 0 {
			t.Errorf("%s: %.1f allocs/op, budget 0", name, n)
		}
	}
}

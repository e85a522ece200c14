package cluster

import (
	"fmt"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/shard"
)

func nodes3() []NodeInfo {
	return []NodeInfo{
		{Addr: "127.0.0.1:7000", Bus: "127.0.0.1:7100"},
		{Addr: "127.0.0.1:7001", Bus: "127.0.0.1:7101"},
		{Addr: "127.0.0.1:7002", Bus: "127.0.0.1:7102"},
	}
}

func TestSlotOfMatchesRouteHash(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("user:%d", i))
		want := uint16(shard.RouteValue(key) & SlotMask)
		if got := SlotOf(key); got != want {
			t.Fatalf("SlotOf(%q) = %d, want %d", key, got, want)
		}
	}
}

// With a power-of-two shard count, a slot's keys all land on one
// shard inside the owning node — slot and shard are low-bit
// reductions of the same hash, so migrating a slot moves whole-shard
// locality, never splits it.
func TestSlotShardColocation(t *testing.T) {
	c, err := shard.New(shard.Config{Shards: 4, Engine: kv.Config{Keys: 4000, Mode: kv.ModeSTLT, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	shardOf := map[uint16]int{}
	for i := 0; i < 20000; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		slot := SlotOf(key)
		sh := c.ShardFor(key)
		if prev, ok := shardOf[slot]; ok && prev != sh {
			t.Fatalf("slot %d split across shards %d and %d", slot, prev, sh)
		}
		shardOf[slot] = sh
	}
}

func TestNewSlotMapEvenSplit(t *testing.T) {
	m := NewSlotMap(nodes3())
	counts := map[int]int{}
	prev := -1
	for s := 0; s < NumSlots; s++ {
		o := m.Owner(uint16(s))
		if o < prev {
			t.Fatalf("ownership not contiguous at slot %d", s)
		}
		prev = o
		counts[o]++
	}
	for n, c := range counts {
		if c < NumSlots/3-1 || c > NumSlots/3+1 {
			t.Fatalf("node %d owns %d slots, want ~%d", n, c, NumSlots/3)
		}
	}
	if got := len(m.Ranges()); got != 3 {
		t.Fatalf("ranges: %d, want 3", got)
	}
}

func TestSlotMapEncodeDecode(t *testing.T) {
	m := NewSlotMap(nodes3())
	m.Version = 9
	m.SetOwner(0, 2)
	m.SetOwner(8000, 0)
	got, err := DecodeSlotMap(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 9 || len(got.Nodes) != 3 {
		t.Fatalf("header: %+v", got)
	}
	if got.Nodes[1] != (NodeInfo{Addr: "127.0.0.1:7001", Bus: "127.0.0.1:7101"}) {
		t.Fatalf("node info: %+v", got.Nodes[1])
	}
	for s := 0; s < NumSlots; s++ {
		if got.Owner(uint16(s)) != m.Owner(uint16(s)) {
			t.Fatalf("slot %d: %d != %d", s, got.Owner(uint16(s)), m.Owner(uint16(s)))
		}
	}
}

func TestDecodeSlotMapRejectsBadCoverage(t *testing.T) {
	m := NewSlotMap(nodes3())
	enc := m.Encode(nil)
	for _, mut := range [][]byte{
		enc[:8],          // truncated header
		enc[:len(enc)-3], // truncated ranges
	} {
		if _, err := DecodeSlotMap(mut); err == nil {
			t.Fatalf("accepted %d-byte mutation", len(mut))
		}
	}
}

func TestNodeAdoptVersioning(t *testing.T) {
	m := NewSlotMap(nodes3())
	n := NewNode(1, m)
	older := m.Clone()
	older.Version = 0
	if n.AdoptMap(older) {
		t.Fatal("adopted older map")
	}
	same := m.Clone()
	if n.AdoptMap(same) {
		t.Fatal("adopted same-version map")
	}
	newer := m.Clone()
	newer.Version = 5
	newer.SetOwner(0, 1)
	if !n.AdoptMap(newer) {
		t.Fatal("rejected newer map")
	}
	if n.Version() != 5 || n.Map().Owner(0) != 1 {
		t.Fatalf("map not installed: v%d", n.Version())
	}
}

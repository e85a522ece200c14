package main

import (
	"sort"

	"addrkv/internal/ycsb"
)

// op is one generated request and what the model says about its key.
type op struct {
	id  uint64
	set bool
	// ver is the version a SET writes, or the version a GET must read.
	ver uint32
	// absent marks a GET of a key that was never loaded or written: the
	// reply must be a null bulk.
	absent bool
	// size is the value size at ver.
	size int
}

// value renders the bytes op writes or must read.
func (o op) value() []byte { return ycsb.Value(o.id, o.ver, o.size) }

// opGen is one connection's op stream and its model of the store. The
// connection owns the key ids congruent to conn modulo conns, so no
// other writer can change what its GETs must return, and every reply
// can be checked byte for byte.
type opGen struct {
	g       *ycsb.Generator
	conn    uint64
	conns   uint64
	preload uint64 // ids below this exist at version 0
	vsize   int
	// ver holds the last version written per id. Commands of one
	// connection execute in order, so it is advanced when a SET is
	// generated and a later GET in the same burst already expects it.
	ver map[uint64]uint32
}

func newOpGen(w workload, seed uint64, conn int) *opGen {
	per := w.idSpace / w.conns
	return &opGen{
		g: ycsb.NewGenerator(ycsb.Config{
			Keys: per, ValueSize: w.vsize, Dist: w.dist,
			SetFraction: w.setFrac, Seed: seed*1_000_003 + uint64(conn) + 1,
		}),
		conn: uint64(conn), conns: uint64(w.conns),
		preload: uint64(w.keys), vsize: w.vsize,
		ver: map[uint64]uint32{},
	}
}

func (m *opGen) next() op {
	o := m.g.Next()
	id := o.KeyID*m.conns + m.conn
	if o.Type == ycsb.Set {
		v := m.ver[id] + 1
		m.ver[id] = v
		return op{id: id, set: true, ver: v, size: m.vsize}
	}
	return m.expect(id)
}

// expect is the GET the model predicts for id.
func (m *opGen) expect(id uint64) op {
	if v, ok := m.ver[id]; ok {
		return op{id: id, ver: v, size: m.vsize}
	}
	if id < m.preload {
		return op{id: id, size: preloadVsize}
	}
	return op{id: id, absent: true}
}

// written lists the ids this connection wrote, in ascending order.
func (m *opGen) written() []uint64 {
	ids := make([]uint64, 0, len(m.ver))
	for id := range m.ver {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// userBytes sums key plus value bytes of everything written.
func (m *opGen) userBytes() int64 {
	var n int64
	for _, v := range m.ver {
		n += int64(v) * int64(ycsb.KeyLen+m.vsize)
	}
	return n
}

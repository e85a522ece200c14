// The versioned slot map: which node owns which hash slots.
//
// Versioning follows the usual epoch rule: every ownership change
// bumps Version by one, and a node adopts a received map only when
// its version is strictly newer than the one it holds. A migration
// commits by shipping version+1 with the slot flipped to the
// destination FIRST (so the new owner can serve before anyone else
// learns), then installing locally, then gossiping to the remaining
// peers — stale peers keep answering MOVED toward the old owner,
// which answers MOVED toward the new one, so clients converge in at
// most two hops.
package cluster

import (
	"encoding/binary"
	"fmt"
)

// NodeInfo identifies one cluster member: the client-facing RESP
// address redirects point at, and the bus address peers dial.
type NodeInfo struct {
	// Addr is the advertised client address ("host:port").
	Addr string
	// Bus is the node-to-node bus address ("host:port").
	Bus string
}

// SlotMap assigns every hash slot to one node. The zero value is not
// usable; build with NewSlotMap or DecodeSlotMap.
type SlotMap struct {
	// Version is the map epoch; higher wins.
	Version uint64
	// Nodes lists the cluster members; slot owners index into it.
	Nodes []NodeInfo
	// owners[slot] is the owning node index.
	owners []int16
}

// NewSlotMap builds a version-1 map over nodes with the slot space
// split into len(nodes) contiguous even ranges (node i owns
// [i*N/n, (i+1)*N/n)).
func NewSlotMap(nodes []NodeInfo) *SlotMap {
	m := &SlotMap{Version: 1, Nodes: nodes, owners: make([]int16, NumSlots)}
	n := len(nodes)
	for s := 0; s < NumSlots; s++ {
		m.owners[s] = int16(s * n / NumSlots)
	}
	return m
}

// Owner returns the owning node index of a slot.
func (m *SlotMap) Owner(slot uint16) int { return int(m.owners[slot]) }

// SetOwner reassigns a slot. Callers bump Version once per ownership
// change they publish.
func (m *SlotMap) SetOwner(slot uint16, node int) { m.owners[slot] = int16(node) }

// OwnedCount returns how many slots a node owns.
func (m *SlotMap) OwnedCount(node int) int {
	n := 0
	for _, o := range m.owners {
		if int(o) == node {
			n++
		}
	}
	return n
}

// Owners returns the distinct node indexes owning at least one slot,
// in node order — the set whose health decides cluster_state.
func (m *SlotMap) Owners() []int {
	seen := make([]bool, len(m.Nodes))
	for _, o := range m.owners {
		if int(o) >= 0 && int(o) < len(seen) {
			seen[o] = true
		}
	}
	out := make([]int, 0, len(seen))
	for i, ok := range seen {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Clone deep-copies the map (Nodes metadata is shared by value).
func (m *SlotMap) Clone() *SlotMap {
	c := &SlotMap{
		Version: m.Version,
		Nodes:   append([]NodeInfo(nil), m.Nodes...),
		owners:  append([]int16(nil), m.owners...),
	}
	return c
}

// SlotRange is one maximal run of consecutive slots with one owner.
type SlotRange struct {
	Start, End uint16 // inclusive
	Node       int
}

// Ranges returns the map as maximal contiguous runs, in slot order —
// the compact form the wire encoding and CLUSTER SLOTS use.
func (m *SlotMap) Ranges() []SlotRange {
	var out []SlotRange
	start := 0
	for s := 1; s <= NumSlots; s++ {
		if s == NumSlots || m.owners[s] != m.owners[start] {
			out = append(out, SlotRange{
				Start: uint16(start), End: uint16(s - 1), Node: int(m.owners[start]),
			})
			start = s
		}
	}
	return out
}

// Encode appends the map's wire form to buf: version u64, node count
// u16, per node two length-prefixed strings (addr, bus), range count
// u32, per range u16 start, u16 end, u16 owner — all little-endian.
// The range form keeps a production map (a handful of runs) to a few
// dozen bytes; the worst case (alternating owners) still fits a
// single bus frame.
func (m *SlotMap) Encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		buf = appendString(buf, n.Addr)
		buf = appendString(buf, n.Bus)
	}
	ranges := m.Ranges()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ranges)))
	for _, r := range ranges {
		buf = binary.LittleEndian.AppendUint16(buf, r.Start)
		buf = binary.LittleEndian.AppendUint16(buf, r.End)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.Node))
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("cluster: short string header")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("cluster: short string body (%d < %d)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

// DecodeSlotMap parses an Encode'd map, validating that every slot is
// covered exactly once and every owner is a known node.
func DecodeSlotMap(b []byte) (*SlotMap, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("cluster: slot map too short (%d bytes)", len(b))
	}
	m := &SlotMap{Version: binary.LittleEndian.Uint64(b), owners: make([]int16, NumSlots)}
	nodes := int(binary.LittleEndian.Uint16(b[8:]))
	b = b[10:]
	if nodes == 0 {
		return nil, fmt.Errorf("cluster: slot map with zero nodes")
	}
	for i := 0; i < nodes; i++ {
		var addr, bus string
		var err error
		if addr, b, err = takeString(b); err != nil {
			return nil, err
		}
		if bus, b, err = takeString(b); err != nil {
			return nil, err
		}
		m.Nodes = append(m.Nodes, NodeInfo{Addr: addr, Bus: bus})
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("cluster: short range header")
	}
	nr := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != nr*6 {
		return nil, fmt.Errorf("cluster: range body %d bytes, want %d", len(b), nr*6)
	}
	for i := range m.owners {
		m.owners[i] = -1
	}
	for i := 0; i < nr; i++ {
		lo := binary.LittleEndian.Uint16(b[i*6:])
		hi := binary.LittleEndian.Uint16(b[i*6+2:])
		own := int(binary.LittleEndian.Uint16(b[i*6+4:]))
		if lo >= NumSlots || hi >= NumSlots || lo > hi {
			return nil, fmt.Errorf("cluster: bad range %d-%d", lo, hi)
		}
		if own >= nodes {
			return nil, fmt.Errorf("cluster: range owner %d of %d nodes", own, nodes)
		}
		for s := int(lo); s <= int(hi); s++ {
			if m.owners[s] != -1 {
				return nil, fmt.Errorf("cluster: slot %d covered twice", s)
			}
			m.owners[s] = int16(own)
		}
	}
	for s, o := range m.owners {
		if o == -1 {
			return nil, fmt.Errorf("cluster: slot %d unowned", s)
		}
	}
	return m, nil
}

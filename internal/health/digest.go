// The fleet digest: a compact, fixed-layout snapshot of one node's
// serving telemetry, returned on demand by DigestGet (heartbeats carry
// only the sender's index). The digest is built from existing read-only
// surfaces (Report, queue depths, latency histograms), so building it
// never charges modeled cycles — a scraped run stays bit-for-bit
// identical to an unscraped one.
//
// Encoding is little-endian with a leading version byte, the same
// armor philosophy as the bus frames that carry it: decode exactly or
// reject whole. Per-shard entries follow the fixed header, prefixed by
// a u16 count, so the digest grows with the shard count but stays a
// few hundred bytes for realistic fleets.
package health

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// digestVersion is the wire version byte; a decoder refuses digests
// from a different layout generation instead of misreading them.
const digestVersion = 2

// maxDigestShards bounds the decoded shard-entry count so a hostile
// count prefix cannot force a giant allocation.
const maxDigestShards = 1 << 16

// ErrBadDigest reports an encoded digest that does not decode exactly.
var ErrBadDigest = errors.New("health: bad digest encoding")

// ShardDigest is one shard's slice of the digest: enough to derive the
// per-shard STLT fast-path hit rate and the worker queue pressure.
type ShardDigest struct {
	Ops        uint64 // engine ops served by this shard
	Gets       uint64 // GET/EXISTS ops (the hit-rate denominator)
	FastHits   uint64 // fast-path (STLT/SLB) hits
	Keys       uint64 // keys resident
	QueueDepth uint32 // worker ring depth (0 in mutex dispatch)
}

// HitRate derives the shard's fast-path hit rate (0 when no GETs ran).
func (s ShardDigest) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.FastHits) / float64(s.Gets)
}

// Digest is one node's telemetry snapshot. It names no node: the
// collector knows which node it asked.
type Digest struct {
	MapVersion uint64 // sender's installed slot map epoch

	SlotsOwned     uint32
	SlotsMigrating uint32
	SlotsImporting uint32

	Ops       uint64 // engine ops since RESETSTATS
	Gets      uint64
	FastHits  uint64
	Keys      uint64 // keys resident across shards
	UsedBytes uint64 // record bytes tracked by eviction (0 without -maxmemory)

	OpsPerSec float64 // sender-computed rate since its previous digest
	LatP50US  float64 // wall-clock command latency percentiles
	LatP99US  float64

	Shards []ShardDigest
}

// HitRate derives the node-wide fast-path hit rate.
func (d *Digest) HitRate() float64 {
	if d.Gets == 0 {
		return 0
	}
	return float64(d.FastHits) / float64(d.Gets)
}

// QueueDepth sums the per-shard worker ring depths.
func (d *Digest) QueueDepth() uint64 {
	var n uint64
	for _, s := range d.Shards {
		n += uint64(s.QueueDepth)
	}
	return n
}

// Encode appends the digest's wire form to buf and returns the
// extended slice.
func (d *Digest) Encode(buf []byte) []byte {
	buf = append(buf, digestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, d.MapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, d.SlotsOwned)
	buf = binary.LittleEndian.AppendUint32(buf, d.SlotsMigrating)
	buf = binary.LittleEndian.AppendUint32(buf, d.SlotsImporting)
	buf = binary.LittleEndian.AppendUint64(buf, d.Ops)
	buf = binary.LittleEndian.AppendUint64(buf, d.Gets)
	buf = binary.LittleEndian.AppendUint64(buf, d.FastHits)
	buf = binary.LittleEndian.AppendUint64(buf, d.Keys)
	buf = binary.LittleEndian.AppendUint64(buf, d.UsedBytes)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.OpsPerSec))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.LatP50US))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.LatP99US))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.Shards)))
	for _, s := range d.Shards {
		buf = binary.LittleEndian.AppendUint64(buf, s.Ops)
		buf = binary.LittleEndian.AppendUint64(buf, s.Gets)
		buf = binary.LittleEndian.AppendUint64(buf, s.FastHits)
		buf = binary.LittleEndian.AppendUint64(buf, s.Keys)
		buf = binary.LittleEndian.AppendUint32(buf, s.QueueDepth)
	}
	return buf
}

// digestHeaderSize is the fixed prefix: version byte, map version
// u64, three u32 slot counts, five u64 counters, three f64 rates, and
// the u16 shard count.
const digestHeaderSize = 1 + 8 + 3*4 + 5*8 + 3*8 + 2

// shardDigestSize is one per-shard entry: four u64 counters + u32.
const shardDigestSize = 4*8 + 4

// DecodeDigest decodes one digest. The whole buffer must be consumed —
// trailing bytes are a framing error, not padding.
func DecodeDigest(b []byte) (*Digest, error) {
	if len(b) < digestHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadDigest, len(b))
	}
	if b[0] != digestVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadDigest, b[0])
	}
	d := &Digest{}
	d.MapVersion = binary.LittleEndian.Uint64(b[1:])
	d.SlotsOwned = binary.LittleEndian.Uint32(b[9:])
	d.SlotsMigrating = binary.LittleEndian.Uint32(b[13:])
	d.SlotsImporting = binary.LittleEndian.Uint32(b[17:])
	d.Ops = binary.LittleEndian.Uint64(b[21:])
	d.Gets = binary.LittleEndian.Uint64(b[29:])
	d.FastHits = binary.LittleEndian.Uint64(b[37:])
	d.Keys = binary.LittleEndian.Uint64(b[45:])
	d.UsedBytes = binary.LittleEndian.Uint64(b[53:])
	d.OpsPerSec = math.Float64frombits(binary.LittleEndian.Uint64(b[61:]))
	d.LatP50US = math.Float64frombits(binary.LittleEndian.Uint64(b[69:]))
	d.LatP99US = math.Float64frombits(binary.LittleEndian.Uint64(b[77:]))
	shards := int(binary.LittleEndian.Uint16(b[85:]))
	if shards > maxDigestShards {
		return nil, fmt.Errorf("%w: %d shard entries", ErrBadDigest, shards)
	}
	rest := b[digestHeaderSize:]
	if len(rest) != shards*shardDigestSize {
		return nil, fmt.Errorf("%w: %d trailing bytes for %d shards", ErrBadDigest, len(rest), shards)
	}
	if shards > 0 {
		d.Shards = make([]ShardDigest, shards)
		for i := range d.Shards {
			e := rest[i*shardDigestSize:]
			d.Shards[i] = ShardDigest{
				Ops:        binary.LittleEndian.Uint64(e),
				Gets:       binary.LittleEndian.Uint64(e[8:]),
				FastHits:   binary.LittleEndian.Uint64(e[16:]),
				Keys:       binary.LittleEndian.Uint64(e[24:]),
				QueueDepth: binary.LittleEndian.Uint32(e[32:]),
			}
		}
	}
	return d, nil
}

// Package wal is the durability subsystem: a per-shard append-only log
// (AOF) of CRC32C-framed mutation records, group-committed by each
// shard's single writer, plus compacting snapshots and a recovery path
// that replays snapshot + log tail deterministically.
//
// The design follows the layered entry-file shape of onvakv (an
// append-only entry file per shard, periodically rewritten from live
// state so the head is prunable) and keeps persistence off the hot
// path as LaKe's production-KV framing argues: the per-shard worker
// runtime already gives exactly one writer per shard, so appends are
// plain buffer writes under the shard lock and ONE fsync covers a
// whole drain burst (group commit).
//
// Recovery contract (the repo's differential discipline): a recovered
// engine is bit-for-bit identical — replies, modeled cycles, stats —
// to a fresh engine that executed the surviving record stream live.
// Snapshot records replay as untimed bulk loads (the warm/preload
// path); tail records replay as timed ops. kvreplay -format aof is the
// reference executor for exactly that semantic.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Kind tags one log record.
type Kind uint8

// Record kinds. RecLoad is an untimed bulk insert (preload and
// snapshot records); RecSet/RecDel/RecFlush are timed mutations in
// engine execution order. RecExpire arms a TTL deadline (value is the
// 8-byte little-endian absolute deadline in unix nanoseconds; timed in
// the tail, untimed in snapshots). RecExpireDel and RecEvict record a
// lazy-expiry or maxmemory-eviction removal: both replay as untimed
// removals, because the live engine performed them as untimed
// maintenance — logging them keeps the index layout (and therefore
// every later op's modeled cycles) bit-for-bit reproducible.
const (
	RecSet       Kind = 1
	RecDel       Kind = 2
	RecFlush     Kind = 3
	RecLoad      Kind = 4
	RecExpire    Kind = 5
	RecExpireDel Kind = 6
	RecEvict     Kind = 7
)

func (k Kind) String() string {
	switch k {
	case RecSet:
		return "set"
	case RecDel:
		return "del"
	case RecFlush:
		return "flushall"
	case RecLoad:
		return "load"
	case RecExpire:
		return "expire"
	case RecExpireDel:
		return "expiredel"
	case RecEvict:
		return "evict"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func validKind(k Kind) bool { return k >= RecSet && k <= RecEvict }

// Record is one decoded log entry. Key and Value alias the buffer the
// frame was decoded from.
type Record struct {
	Kind  Kind
	Key   []byte
	Value []byte
}

// Frame layout on disk:
//
//	offset 0: payloadLen (uint32, little-endian) — bytes after the header
//	offset 4: CRC32C of the payload (uint32, little-endian)
//	offset 8: payload:
//	    offset 0: kind (1 byte)
//	    offset 1: keyLen (uint32, little-endian)
//	    offset 5: key bytes
//	    offset 5+keyLen: value bytes
const (
	frameHeaderSize   = 8
	payloadHeaderSize = 5
	// MaxPayload bounds one frame's payload (guards recovery against
	// garbage length prefixes claiming gigabytes).
	MaxPayload = 1 << 26
)

// crcTable is the Castagnoli polynomial (CRC32C, the checksum
// SSE4.2/ARMv8 accelerate and most storage formats use).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame decode errors. ErrTruncated means the buffer ends inside a
// frame (a torn tail — recoverable by truncating to the last whole
// frame); ErrCorrupt means a structurally invalid or checksum-failing
// frame.
var (
	ErrTruncated = errors.New("wal: truncated frame")
	ErrCorrupt   = errors.New("wal: corrupt frame")
)

// FrameSize returns the encoded size of a record.
func FrameSize(keyLen, valueLen int) int {
	return frameHeaderSize + payloadHeaderSize + keyLen + valueLen
}

// AppendFrame appends the encoded frame for one record to buf and
// returns the extended slice. It performs no allocation beyond growing
// buf.
func AppendFrame(buf []byte, kind Kind, key, value []byte) []byte {
	payloadLen := payloadHeaderSize + len(key) + len(value)
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize)...)
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// DecodeFrame parses the first frame in b, returning the record and
// the number of bytes the frame occupies. On error the returned size
// is 0 and err is ErrTruncated (b ends mid-frame) or ErrCorrupt
// (bad length, kind, or checksum). An empty b returns (zero, 0, nil)
// — the clean end-of-log case — so callers distinguish "done" (n == 0,
// err == nil) from "torn" (ErrTruncated).
func DecodeFrame(b []byte) (rec Record, n int, err error) {
	if len(b) == 0 {
		return Record{}, 0, nil
	}
	if len(b) < frameHeaderSize {
		return Record{}, 0, ErrTruncated
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:]))
	if payloadLen < payloadHeaderSize || payloadLen > MaxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, payloadLen)
	}
	if len(b) < frameHeaderSize+payloadLen {
		return Record{}, 0, ErrTruncated
	}
	payload := b[frameHeaderSize : frameHeaderSize+payloadLen]
	if crc := crc32.Checksum(payload, crcTable); crc != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	kind := Kind(payload[0])
	if !validKind(kind) {
		return Record{}, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, payload[0])
	}
	keyLen := int(binary.LittleEndian.Uint32(payload[1:]))
	if keyLen > payloadLen-payloadHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: key length %d exceeds payload", ErrCorrupt, keyLen)
	}
	body := payload[payloadHeaderSize:]
	return Record{Kind: kind, Key: body[:keyLen], Value: body[keyLen:]}, frameHeaderSize + payloadLen, nil
}

// ScanResult reports what Scan found in a log image: Valid bytes of
// whole frames, then TornBytes of a damaged tail, then Padding zeros.
type ScanResult struct {
	// Records are the decoded frames, in file order (aliasing the
	// scanned buffer).
	Records []Record
	// Valid is the byte offset just past the last whole frame.
	Valid int64
	// Padding counts the zero bytes that end the image: the tail a Log
	// fills ahead of its writes, left behind when it was not closed.
	Padding int64
	// Torn reports TornBytes > 0: bytes past Valid that are neither a
	// whole frame nor padding (a truncated or corrupt tail). TornErr
	// describes the defect.
	Torn      bool
	TornBytes int64
	TornErr   error
}

// Scan decodes every whole frame in b. It never fails: a torn or
// corrupt tail ends the scan, reported via Torn/TornErr, and the
// records before it stand — the crash-recovery semantic (satellite:
// torn writes at the tail must not fail startup). An all-zero
// remainder is the clean end of a preallocated log, not a torn one: no
// frame starts with a zero length word.
func Scan(b []byte) ScanResult {
	var res ScanResult
	for {
		rec, n, err := DecodeFrame(b[res.Valid:])
		if err != nil {
			end := int64(len(b))
			for end > res.Valid && b[end-1] == 0 {
				end--
			}
			res.Padding = int64(len(b)) - end
			if res.TornBytes = end - res.Valid; res.TornBytes > 0 {
				res.Torn, res.TornErr = true, err
			}
			return res
		}
		if n == 0 {
			return res
		}
		res.Records = append(res.Records, rec)
		res.Valid += int64(n)
	}
}

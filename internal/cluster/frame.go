// Bus frame codec. Same armor as internal/wal's record frames — a
// little-endian [payloadLen u32][crc32c u32] header over a
// [type u8][body] payload — because the bus and the log face the same
// failure shape: a byte stream that can be torn or corrupted must
// never be half-trusted. A frame either decodes exactly or is
// rejected whole.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MsgType identifies one bus message.
type MsgType uint8

// Bus message types. Every request is answered by exactly one reply
// frame (MsgMap, MsgAck or MsgErr), so a peer connection is a simple
// in-order call channel.
const (
	// MsgHello introduces a peer; body: u16 sender node index.
	// Reply: MsgMap with the receiver's current slot map.
	MsgHello MsgType = 1
	// MsgMapGet requests the current slot map; empty body.
	// Reply: MsgMap.
	MsgMapGet MsgType = 2
	// MsgMap carries an encoded SlotMap (see SlotMap.Encode).
	MsgMap MsgType = 3
	// MsgMapUpdate gossips a newer slot map; body: encoded SlotMap.
	// Reply: MsgAck with the receiver's (possibly newer) version.
	MsgMapUpdate MsgType = 4
	// MsgMigStart opens an import: the sender is about to stream a
	// slot's records; body: u16 slot, u16 source node index.
	// Reply: MsgAck, or MsgErr when the receiver must refuse (it
	// already owns the slot, or is importing it from someone else).
	MsgMigStart MsgType = 5
	// MsgMigBatch carries one extracted batch; body: u16 slot,
	// u16 source node index, u8 rewarm flag, then wal RecLoad frames
	// back to back. The receiver must refuse (MsgErr) unless the slot
	// is importing from exactly that source — a duplicate batch
	// arriving after the commit must not re-install stale records.
	// Reply: MsgAck with the number of records installed.
	MsgMigBatch MsgType = 6
	// MsgMigCommit flips ownership; body: u16 slot, then the encoded
	// post-migration SlotMap (version+1, slot owned by the receiver).
	// Reply: MsgAck with the adopted version.
	MsgMigCommit MsgType = 7
	// MsgAck acknowledges a request; body: u64 kind-specific count.
	MsgAck MsgType = 8
	// MsgErr rejects a request; body: utf-8 reason.
	MsgErr MsgType = 9
	// MsgHeartbeat announces the sender is alive; body: the sender's
	// node index (EncodeU64), nothing else. Reply: an empty MsgAck — a
	// successful round-trip is liveness evidence in both directions.
	MsgHeartbeat MsgType = 10
	// MsgDigestGet requests the receiver's report of itself (fleet
	// aggregation fan-out); empty body. Reply: MsgDigest.
	MsgDigestGet MsgType = 11
	// MsgDigest carries the sender's report (kvserve's report rows, as text).
	MsgDigest MsgType = 12
)

func validMsgType(t MsgType) bool { return t >= MsgHello && t <= MsgDigest }

// Msg is one decoded bus frame. Payload aliases the decode buffer.
type Msg struct {
	Type    MsgType
	Payload []byte
}

// MaxPayload bounds a frame's payload (type byte + body), like
// wal.MaxPayload: big enough for a migration batch of maximal
// records, small enough that a hostile length prefix cannot force a
// giant allocation.
const MaxPayload = 1 << 26

const frameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a frame cut short — the reader should treat the
// stream as ended mid-frame.
var ErrTorn = errors.New("cluster: torn frame")

// ErrCorrupt reports a frame whose bytes are internally inconsistent
// (CRC mismatch, unknown type, hostile length).
var ErrCorrupt = errors.New("cluster: corrupt frame")

// AppendFrame appends one encoded frame to buf and returns the
// extended slice.
func AppendFrame(buf []byte, t MsgType, body []byte) []byte {
	plen := 1 + len(body)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(plen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = append(buf, byte(t))
	buf = append(buf, body...)
	crc := crc32.Checksum(buf[crcAt+4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// DecodeFrame decodes the first frame in b. Returns the message and
// the bytes consumed. A clean end (empty b) returns n == 0 with no
// error; a frame cut short returns ErrTorn; inconsistent bytes return
// ErrCorrupt. On any error n is 0 — a bad frame consumes nothing.
// Msg.Payload aliases b.
func DecodeFrame(b []byte) (Msg, int, error) {
	if len(b) == 0 {
		return Msg{}, 0, nil
	}
	if len(b) < frameHeaderSize {
		return Msg{}, 0, ErrTorn
	}
	plen := binary.LittleEndian.Uint32(b)
	if plen < 1 || plen > MaxPayload {
		return Msg{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	total := frameHeaderSize + int(plen)
	if len(b) < total {
		return Msg{}, 0, ErrTorn
	}
	want := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameHeaderSize:total]
	if crc32.Checksum(payload, castagnoli) != want {
		return Msg{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	t := MsgType(payload[0])
	if !validMsgType(t) {
		return Msg{}, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, t)
	}
	return Msg{Type: t, Payload: payload[1:]}, total, nil
}

// WriteMsg writes one frame to w.
func WriteMsg(w io.Writer, t MsgType, body []byte) error {
	_, err := w.Write(AppendFrame(nil, t, body))
	return err
}

// ReadMsg reads exactly one frame from r, reusing buf when it is
// large enough. Returns the message (Payload aliases the returned
// buffer) and the buffer for reuse. A clean EOF before any header
// byte returns io.EOF; a tear mid-frame returns ErrTorn.
func ReadMsg(r io.Reader, buf []byte) (Msg, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Msg{}, buf, io.EOF
		}
		return Msg{}, buf, ErrTorn
	}
	plen := binary.LittleEndian.Uint32(hdr[:])
	if plen < 1 || plen > MaxPayload {
		return Msg{}, buf, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	total := frameHeaderSize + int(plen)
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[frameHeaderSize:]); err != nil {
		return Msg{}, buf, ErrTorn
	}
	m, _, err := DecodeFrame(buf)
	return m, buf, err
}

// Payload helpers: tiny fixed encodings for the migration messages.

// EncodeSlotNode encodes (slot, node) — the MigStart body.
func EncodeSlotNode(slot uint16, node int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint16(b[0:], slot)
	binary.LittleEndian.PutUint16(b[2:], uint16(node))
	return b[:]
}

// DecodeSlotNode decodes a MigStart body.
func DecodeSlotNode(b []byte) (slot uint16, node int, err error) {
	if len(b) != 4 {
		return 0, 0, fmt.Errorf("%w: slot/node body %d bytes", ErrCorrupt, len(b))
	}
	return binary.LittleEndian.Uint16(b), int(binary.LittleEndian.Uint16(b[2:])), nil
}

// EncodeMigBatch prefixes a run of wal RecLoad frames with the slot,
// the sending node and the re-warm flag — the MigBatch body.
func EncodeMigBatch(slot uint16, src int, rewarm bool, frames []byte) []byte {
	b := make([]byte, 0, 5+len(frames))
	b = binary.LittleEndian.AppendUint16(b, slot)
	b = binary.LittleEndian.AppendUint16(b, uint16(src))
	if rewarm {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, frames...)
}

// DecodeMigBatch splits a MigBatch body; frames aliases b.
func DecodeMigBatch(b []byte) (slot uint16, src int, rewarm bool, frames []byte, err error) {
	if len(b) < 5 {
		return 0, 0, false, nil, fmt.Errorf("%w: mig batch body %d bytes", ErrCorrupt, len(b))
	}
	return binary.LittleEndian.Uint16(b), int(binary.LittleEndian.Uint16(b[2:])), b[4] == 1, b[5:], nil
}

// EncodeMigCommit prefixes an encoded slot map with the committed
// slot — the MigCommit body.
func EncodeMigCommit(slot uint16, m *SlotMap) []byte {
	b := make([]byte, 0, 64)
	b = binary.LittleEndian.AppendUint16(b, slot)
	return m.Encode(b)
}

// DecodeMigCommit splits a MigCommit body.
func DecodeMigCommit(b []byte) (slot uint16, m *SlotMap, err error) {
	if len(b) < 2 {
		return 0, nil, fmt.Errorf("%w: mig commit body %d bytes", ErrCorrupt, len(b))
	}
	m, err = DecodeSlotMap(b[2:])
	if err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint16(b), m, nil
}

// EncodeU64 encodes an Ack count.
func EncodeU64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeU64 decodes an Ack count (0 on short body — Acks are
// advisory).
func DecodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

package index

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"addrkv/internal/arch"
	"addrkv/internal/cpu"
	"addrkv/internal/vm"
)

// Record layout in simulated memory:
//
//	offset 0: keyLen  (uint16, little-endian)
//	offset 2: valLen  (uint32, little-endian)
//	offset 6: 2 bytes padding
//	offset 8: key bytes
//	offset 8+keyLen: value bytes
//
// Key and value live in one contiguous blob, like a Redis sds/robj
// pair allocated together or an embstr object: reading the header line
// also brings in the start of the key, so validation of an STLT hit
// usually costs a single cache line.

// RecordHeaderSize is the fixed record header size.
const RecordHeaderSize = 8

// MaxKeyLen is the largest supported key (uint16 length field).
const MaxKeyLen = 1<<16 - 1

// RecordSize returns the allocation size for a key/value pair.
func RecordSize(keyLen, valLen int) int {
	return RecordHeaderSize + keyLen + valLen
}

// AllocRecord allocates and fills a record blob in simulated memory
// (functional stores; the timing of a SET's stores is charged by the
// caller via TouchRecordWrite so build-phase inserts stay fast).
func AllocRecord(m *cpu.Machine, key, value []byte) arch.Addr {
	if len(key) > MaxKeyLen {
		panic(fmt.Sprintf("index: key length %d exceeds maximum", len(key)))
	}
	size := RecordSize(len(key), len(value))
	va := m.AS.Alloc(size)
	var hdr [RecordHeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[2:], uint32(len(value)))
	m.AS.WriteAt(va, hdr[:])
	m.AS.WriteAt(va+RecordHeaderSize, key)
	m.AS.WriteAt(va+RecordHeaderSize+arch.Addr(len(key)), value)
	return va
}

// FreeRecord releases a record blob.
func FreeRecord(m *cpu.Machine, va arch.Addr, keyLen, valLen int) {
	m.AS.Free(va, RecordSize(keyLen, valLen))
}

// ReadRecordHeader performs a timed read of the record header and
// returns (keyLen, valLen).
func ReadRecordHeader(m *cpu.Machine, va arch.Addr, cat arch.CostCategory) (int, int) {
	var hdr [RecordHeaderSize]byte
	m.Read(va, hdr[:], arch.KindRecord, cat)
	return int(binary.LittleEndian.Uint16(hdr[0:])), int(binary.LittleEndian.Uint32(hdr[2:]))
}

// KeyMatches performs a timed read of the record's header and key and
// reports whether it equals key. This is both the per-node compare of
// the slow path and the software validation of an STLT hit.
func KeyMatches(m *cpu.Machine, va arch.Addr, key []byte, cat arch.CostCategory) bool {
	var hdr [RecordHeaderSize]byte
	m.Read(va, hdr[:], arch.KindRecord, cat)
	kl := int(binary.LittleEndian.Uint16(hdr[0:]))
	if kl != len(key) {
		return false
	}
	m.Compute(keyCompareCost(kl), cat)
	var stack [64]byte
	stored := stack[:]
	if kl > len(stack) {
		stored = make([]byte, kl)
	} else {
		stored = stack[:kl]
	}
	m.Read(va+RecordHeaderSize, stored, arch.KindRecord, cat)
	return string(stored) == string(key)
}

// KeyCompare performs a timed read of the record's key and returns
// bytes.Compare(key, storedKey) — the allocation-free compare used by
// the ordered structures' descents.
func KeyCompare(m *cpu.Machine, va arch.Addr, key []byte, cat arch.CostCategory) int {
	var hdr [RecordHeaderSize]byte
	m.Read(va, hdr[:], arch.KindRecord, cat)
	kl := int(binary.LittleEndian.Uint16(hdr[0:]))
	var stack [64]byte
	stored := stack[:]
	if kl > len(stack) {
		stored = make([]byte, kl)
	} else {
		stored = stack[:kl]
	}
	m.Read(va+RecordHeaderSize, stored, arch.KindRecord, cat)
	m.Compute(keyCompareCost(min(kl, len(key))), cat)
	return bytes.Compare(key, stored)
}

// ReadValueInto performs a timed read of the record's value, charged
// to CatData (the paper's "load record" step). The value is appended
// into buf[:0] (reallocated only when cap(buf) is too small), so a
// steady-state reader with a warm buffer performs zero allocations.
func ReadValueInto(m *cpu.Machine, va arch.Addr, buf []byte) []byte {
	kl, vl := ReadRecordHeader(m, va, arch.CatData)
	if cap(buf) < vl {
		buf = make([]byte, vl)
	} else {
		buf = buf[:vl]
	}
	m.Read(va+RecordHeaderSize+arch.Addr(kl), buf, arch.KindRecord, arch.CatData)
	return buf
}

// ReadKeyInto performs a timed read of the record's key, appended into
// buf[:0] (reallocated only when cap(buf) is too small) — the per-record
// read of an ordered scan's emission path.
func ReadKeyInto(m *cpu.Machine, va arch.Addr, buf []byte, cat arch.CostCategory) []byte {
	var hdr [RecordHeaderSize]byte
	m.Read(va, hdr[:], arch.KindRecord, cat)
	kl := int(binary.LittleEndian.Uint16(hdr[0:]))
	if cap(buf) < kl {
		buf = make([]byte, kl)
	} else {
		buf = buf[:kl]
	}
	m.Read(va+RecordHeaderSize, buf, arch.KindRecord, cat)
	return buf
}

// TouchValue charges the timed traffic of reading the value without
// materializing it.
func TouchValue(m *cpu.Machine, va arch.Addr) {
	kl, vl := ReadRecordHeader(m, va, arch.CatData)
	m.Touch(va+RecordHeaderSize+arch.Addr(kl), vl, false, arch.KindRecord, arch.CatData)
}

// TouchRecordWrite charges the timed traffic of writing a fresh record
// (a SET on the measured path).
func TouchRecordWrite(m *cpu.Machine, va arch.Addr, keyLen, valLen int) {
	m.Touch(va, RecordSize(keyLen, valLen), true, arch.KindRecord, arch.CatData)
}

// headerFunctional reads a record header without timing (rehash and
// free paths).
func headerFunctional(as *vm.AddressSpace, rec arch.Addr) (keyLen, valLen int) {
	var hdr [RecordHeaderSize]byte
	as.ReadAt(rec, hdr[:])
	return int(binary.LittleEndian.Uint16(hdr[0:])), int(binary.LittleEndian.Uint32(hdr[2:]))
}

// UpdateValueInPlace overwrites a record's value when the new value
// fits the record's allocation class; the caller decides fit.
func UpdateValueInPlace(m *cpu.Machine, va arch.Addr, keyLen int, value []byte) {
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(value)))
	m.Write(va+2, lenb[:], arch.KindRecord, arch.CatData)
	m.Write(va+RecordHeaderSize+arch.Addr(keyLen), value, arch.KindRecord, arch.CatData)
}

// Ordered scans and the SCAN cursor codec.
//
// SCAN and RANGE are timed ops: the traversal goes through the ordered
// index's ScanFrom (every node and record read charged, like Get), and
// the Redis layer charges per-emission reply traffic. They require an
// index.Ordered structure; the hash indexes return ErrUnordered, which
// the server surfaces as a typed RESP error rather than a silent empty
// result.
//
// Cursors are stateless and key-addressed: "0" starts (and ends) a
// walk; a continuation cursor is "k" + lowercase hex of the last key
// the previous page emitted. Resumption is *strictly after* that key,
// so a cursor walk under concurrent writes guarantees: every key
// present for the whole walk is returned exactly once, keys written or
// removed mid-walk are returned at most once, and no key is ever
// duplicated — the guarantees the property tests pin.
package kv

import (
	"bytes"
	"errors"

	"addrkv/internal/arch"
	"addrkv/internal/index"
)

// ErrUnordered reports a SCAN/RANGE against a hash index, which has no
// key order to iterate.
var ErrUnordered = errors.New("kv: index does not support ordered scans")

// ErrBadCursor reports a malformed SCAN cursor.
var ErrBadCursor = errors.New("kv: malformed scan cursor")

const hexDigits = "0123456789abcdef"

// AppendCursor appends the continuation cursor for a scan that last
// emitted key, reusing dst's capacity.
func AppendCursor(dst, key []byte) []byte {
	dst = append(dst, 'k')
	for _, b := range key {
		dst = append(dst, hexDigits[b>>4], hexDigits[b&0xF])
	}
	return dst
}

// ParseCursor decodes cur. "0" means start-of-keyspace (resume false);
// a "k"+hex cursor yields the last-emitted key (resume true) appended
// into buf's capacity. Anything else is ErrBadCursor.
func ParseCursor(cur, buf []byte) (after []byte, resume bool, err error) {
	if len(cur) == 1 && cur[0] == '0' {
		return nil, false, nil
	}
	if len(cur) < 1 || cur[0] != 'k' || (len(cur)-1)%2 != 0 {
		return nil, false, ErrBadCursor
	}
	hex := cur[1:]
	out := buf[:0]
	for i := 0; i < len(hex); i += 2 {
		hi, ok1 := unhex(hex[i])
		lo, ok2 := unhex(hex[i+1])
		if !ok1 || !ok2 {
			return nil, false, ErrBadCursor
		}
		out = append(out, hi<<4|lo)
	}
	return out, true, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ScanStart converts a parsed cursor into the inclusive ScanFrom start
// key: resumption continues strictly after the cursor's key, and the
// smallest such key is the cursor key plus one zero byte. The result
// is appended into buf's capacity.
func ScanStart(after []byte, resume bool, buf []byte) []byte {
	if !resume {
		return nil
	}
	return append(append(buf[:0], after...), 0)
}

// Scan visits up to limit keys >= start in ascending order (timed),
// calling fn with each key. The key slice aliases an internal buffer
// reused across calls; fn must copy anything it keeps. Keys whose TTL
// has passed are skipped (not reaped — removal during iteration would
// restructure the tree under the iterator; the lazy/sweep paths own
// reaping). Returns the number of keys emitted, or ErrUnordered for a
// hash index.
func (e *Engine) Scan(start []byte, limit int, fn func(key []byte) bool) (int, error) {
	ord, ok := e.Idx.(index.Ordered)
	if !ok {
		return 0, ErrUnordered
	}
	e.ops++
	e.scans++
	e.redis.command(start, len("SCAN")+8)
	skipTTL := len(e.expires) != 0
	var now int64
	if skipTTL {
		now = e.now()
	}
	n := 0
	ord.ScanFrom(start, func(rec arch.Addr) bool {
		key := index.ReadKeyInto(e.M, rec, e.scanKey, arch.CatData)
		e.scanKey = key[:0]
		if skipTTL {
			if dl, armed := e.expires[string(key)]; armed && now >= dl {
				return true
			}
		}
		e.redis.reply(len(key))
		n++
		if !fn(key) {
			return false
		}
		return limit <= 0 || n < limit
	})
	return n, nil
}

// Range visits up to limit key/value pairs with start <= key <= end in
// ascending order (timed; end nil = unbounded). Both slices alias
// internal buffers reused across calls. TTL-dead keys are skipped like
// Scan. Returns pairs emitted, or ErrUnordered for a hash index.
func (e *Engine) Range(start, end []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	ord, ok := e.Idx.(index.Ordered)
	if !ok {
		return 0, ErrUnordered
	}
	e.ops++
	e.scans++
	e.redis.command(start, len("RANGE")+len(end))
	skipTTL := len(e.expires) != 0
	var now int64
	if skipTTL {
		now = e.now()
	}
	n := 0
	ord.ScanFrom(start, func(rec arch.Addr) bool {
		key := index.ReadKeyInto(e.M, rec, e.scanKey, arch.CatData)
		e.scanKey = key[:0]
		if end != nil && bytes.Compare(key, end) > 0 {
			return false
		}
		if skipTTL {
			if dl, armed := e.expires[string(key)]; armed && now >= dl {
				return true
			}
		}
		val := index.ReadValueInto(e.M, rec, e.scanVal)
		e.scanVal = val[:0]
		e.redis.replyValue(e.M, rec)
		n++
		if !fn(key, val) {
			return false
		}
		return limit <= 0 || n < limit
	})
	return n, nil
}

// Ordered reports whether the engine's index supports SCAN/RANGE.
func (e *Engine) Ordered() bool {
	_, ok := e.Idx.(index.Ordered)
	return ok
}

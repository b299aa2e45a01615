// Package binenc holds the little-endian encodings behind the
// persistent caches. The value codec (AppendValue, AppendList) encodes
// a value from its Go type: the memoized results of internal/harness,
// with their trace events and input digests, are written with it. The
// bulk loops (AppendInt32s and friends) stay for the workload types'
// persistent-cache representation (encoding.BinaryMarshaler on
// internal/list.List, internal/graph.Graph and friends). Their point is
// decode speed: a warm disk-cache read must beat regenerating the
// workload, and reflection-driven encoders spend tens of nanoseconds
// per element where these loops spend about one.
//
// The format is deliberately dumb — fixed-width little-endian words,
// length-prefixed slices, no framing beyond what the caller writes —
// because the disk cache already authenticates entries (schema salt,
// key echo, checksum) and falls back to a rebuild on any decode error.
// Decoders here must still never panic on truncated or oversized input:
// they return ok=false and let the cache treat the entry as garbage.
package binenc

import (
	"encoding/binary"
	"math"
)

// maxLen bounds decoded slice lengths so a corrupt length prefix cannot
// ask for an absurd allocation before the checksum would have caught it
// (callers outside the cache may feed unvalidated bytes).
const maxLen = 1 << 31

// AppendUint64 appends one word.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// ConsumeUint64 reads one word off the front of b.
func ConsumeUint64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(b), b[8:], true
}

// AppendFloat64 appends one float64 as its IEEE-754 bit pattern, so
// round-trips are exact for every value including NaNs and -0.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// ConsumeFloat64 reads one float64 off the front of b.
func ConsumeFloat64(b []byte) (float64, []byte, bool) {
	u, b, ok := ConsumeUint64(b)
	if !ok {
		return 0, nil, false
	}
	return math.Float64frombits(u), b, true
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, v string) []byte {
	buf = AppendUint64(buf, uint64(len(v)))
	return append(buf, v...)
}

// ConsumeString reads a length-prefixed string off the front of b.
func ConsumeString(b []byte) (string, []byte, bool) {
	v, b, ok := ConsumeBytes(b)
	if !ok {
		return "", nil, false
	}
	return string(v), b, true
}

// AppendInt64s appends a length-prefixed []int64.
func AppendInt64s(buf []byte, v []int64) []byte {
	buf = AppendUint64(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	return buf
}

// ConsumeInt64s reads a length-prefixed []int64 off the front of b.
func ConsumeInt64s(b []byte) ([]int64, []byte, bool) {
	n, b, ok := ConsumeUint64(b)
	if !ok || n > maxLen || uint64(len(b)) < 8*n {
		return nil, nil, false
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v, b[8*n:], true
}

// AppendInt32s appends a length-prefixed []int32.
func AppendInt32s(buf []byte, v []int32) []byte {
	buf = AppendUint64(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// ConsumeInt32s reads a length-prefixed []int32 off the front of b.
func ConsumeInt32s(b []byte) ([]int32, []byte, bool) {
	n, b, ok := ConsumeUint64(b)
	if !ok || n > maxLen || uint64(len(b)) < 4*n {
		return nil, nil, false
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v, b[4*n:], true
}

// AppendBytes appends a length-prefixed byte section (a nested
// marshaled value, say).
func AppendBytes(buf, v []byte) []byte {
	buf = AppendUint64(buf, uint64(len(v)))
	return append(buf, v...)
}

// ConsumeBytes reads a length-prefixed byte section off the front of b.
// The returned section aliases b.
func ConsumeBytes(b []byte) ([]byte, []byte, bool) {
	n, b, ok := ConsumeUint64(b)
	if !ok || n > maxLen || uint64(len(b)) < n {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

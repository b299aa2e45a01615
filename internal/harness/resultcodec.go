package harness

import (
	"fmt"
	"reflect"

	"pargraph/internal/binenc"
	"pargraph/internal/sweep"
)

// pointPair is one fig1/fig2 cell's outcome: the MTA and SMP points.
type pointPair struct {
	MTA Point
	SMP Point
}

// profPoint is one profile cell's model numbers (its events travel in
// the shared trace section of the memo payload).
type profPoint struct {
	Cycles  float64
	Seconds float64
}

// The memoized result types (see memo.go) encode from their Go type:
// appendResult walks the value's exported fields in declaration order,
// flattening nested structs, and writes
//
//   - a float64 as its IEEE-754 bits (one word);
//   - an int as one word;
//   - a string or []byte length-prefixed;
//   - any other slice as count 0 for nil, n+1 for n elements, then the
//     elements (ColoringDynamics.Conflicts renders differently as JSON
//     null and [], so nil and empty stay distinct).
//
// A warm cell's decoded value feeds the same renderers as a cold cell's
// computed one, so the round trip must be exact. Reordering, adding or
// retyping a field of a memoized type changes its stored bytes and
// needs a ResultSchema bump; TestResultEncodings pins them.

// appendResult appends v's encoding to buf. It panics on a field kind
// the encoding does not cover: a programming error, caught by the first
// cold run of the type.
func appendResult[T any](buf []byte, v T) []byte {
	return appendValue(buf, reflect.ValueOf(&v).Elem())
}

func appendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Float64:
		return binenc.AppendFloat64(buf, v.Float())
	case reflect.Int:
		return binenc.AppendUint64(buf, uint64(v.Int()))
	case reflect.String:
		return binenc.AppendString(buf, v.String())
	case reflect.Struct:
		for i := range v.NumField() {
			if !v.Type().Field(i).IsExported() {
				panic(fmt.Sprintf("harness: result field %s.%s is unexported", v.Type(), v.Type().Field(i).Name))
			}
			buf = appendValue(buf, v.Field(i))
		}
		return buf
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return binenc.AppendBytes(buf, v.Bytes())
		}
		if v.IsNil() {
			return binenc.AppendUint64(buf, 0)
		}
		buf = binenc.AppendUint64(buf, uint64(v.Len())+1)
		for i := range v.Len() {
			buf = appendValue(buf, v.Index(i))
		}
		return buf
	}
	panic(fmt.Sprintf("harness: no result encoding for %s", v.Type()))
}

// consumeResult decodes one T off the front of b; a []byte in T
// aliases b. ok is false on truncated or oversized input and on a type
// appendResult refuses; it never panics.
func consumeResult[T any](b []byte) (v T, rest []byte, ok bool) {
	rest, ok = consumeValue(b, reflect.ValueOf(&v).Elem())
	return v, rest, ok
}

func consumeValue(b []byte, v reflect.Value) ([]byte, bool) {
	var ok bool
	switch v.Kind() {
	case reflect.Float64:
		var f float64
		f, b, ok = binenc.ConsumeFloat64(b)
		v.SetFloat(f)
	case reflect.Int:
		var u uint64
		u, b, ok = binenc.ConsumeUint64(b)
		v.SetInt(int64(u))
	case reflect.String:
		var s string
		s, b, ok = binenc.ConsumeString(b)
		v.SetString(s)
	case reflect.Struct:
		for i := range v.NumField() {
			if !v.Type().Field(i).IsExported() {
				return nil, false
			}
			if b, ok = consumeValue(b, v.Field(i)); !ok {
				return nil, false
			}
		}
		return b, true
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			var p []byte
			p, b, ok = binenc.ConsumeBytes(b)
			v.SetBytes(p)
			return b, ok
		}
		var n uint64
		if n, b, ok = binenc.ConsumeUint64(b); !ok || n == 0 {
			return b, ok // count 0 is nil
		}
		// Every element takes at least a word (an empty struct, which
		// no result holds, aside), so a count past the bytes left is
		// corrupt.
		if n--; n > uint64(len(b)) {
			return nil, false
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := range int(n) {
			if b, ok = consumeValue(b, s.Index(i)); !ok {
				return nil, false
			}
		}
		v.Set(s)
		return b, true
	}
	return b, ok
}

// appendDigests / consumeDigests frame the input digests Memo stores
// after a result's value and events.
func appendDigests(buf []byte, ds []sweep.Digest) []byte {
	buf = binenc.AppendUint64(buf, uint64(len(ds)))
	for _, d := range ds {
		buf = binenc.AppendString(buf, d.Key)
		buf = binenc.AppendString(buf, d.SHA256)
		buf = binenc.AppendUint64(buf, uint64(d.Bytes))
	}
	return buf
}

func consumeDigests(b []byte) ([]sweep.Digest, []byte, bool) {
	n, b, ok := binenc.ConsumeUint64(b)
	if !ok || n > uint64(len(b)) { // every digest costs well over one byte
		return nil, nil, false
	}
	ds := make([]sweep.Digest, n)
	for i := range ds {
		var u uint64
		if ds[i].Key, b, ok = binenc.ConsumeString(b); !ok {
			return nil, nil, false
		}
		if ds[i].SHA256, b, ok = binenc.ConsumeString(b); !ok {
			return nil, nil, false
		}
		if u, b, ok = binenc.ConsumeUint64(b); !ok {
			return nil, nil, false
		}
		ds[i].Bytes = int64(u)
	}
	return ds, b, true
}

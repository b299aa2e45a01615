package binenc

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// The value codec: a value encodes from its Go type. AppendValue walks
// the value's exported fields in declaration order, flattening nested
// structs, and writes
//
//   - a float64 as its IEEE-754 bits (one word);
//   - an int or int64 as one word;
//   - a string or []byte length-prefixed;
//   - any other slice as count 0 for nil, n+1 for n elements, then the
//     elements;
//   - a map with string keys as count 0 for nil, n+1 for n entries,
//     then each key (length-prefixed) and its value, in key order.
//
// Nil and empty stay distinct, because renderers treat them
// differently (JSON null against [], a trace's missing against empty
// per-processor busy times), and equal values encode to equal bytes.
// A decoded value equals the encoded one exactly, so a cached value can
// stand in for a computed one.

// AppendValue appends v's encoding to buf. It panics on a kind the
// codec does not cover or an unexported field: a programming error,
// caught by the first encode of the type.
func AppendValue[T any](buf []byte, v T) []byte {
	return appendValue(buf, reflect.ValueOf(&v).Elem())
}

// ConsumeValue decodes one T off the front of b; a []byte in T aliases
// b. ok is false on truncated or oversized input and on a type
// AppendValue refuses; it never panics.
func ConsumeValue[T any](b []byte) (v T, rest []byte, ok bool) {
	rest, ok = consumeValue(b, reflect.ValueOf(&v).Elem())
	return v, rest, ok
}

// AppendList appends a section of values: a plain count, then each
// element's value encoding. Unlike a slice inside a value, a section
// does not tell nil from empty.
func AppendList[T any](buf []byte, vs []T) []byte {
	buf = AppendUint64(buf, uint64(len(vs)))
	for i := range vs {
		buf = appendValue(buf, reflect.ValueOf(&vs[i]).Elem())
	}
	return buf
}

// ConsumeList reads an AppendList section off the front of b.
func ConsumeList[T any](b []byte) ([]T, []byte, bool) {
	n, b, ok := ConsumeUint64(b)
	if !ok || n > uint64(len(b)) { // every element takes at least a word
		return nil, nil, false
	}
	vs := make([]T, n)
	for i := range vs {
		if b, ok = consumeValue(b, reflect.ValueOf(&vs[i]).Elem()); !ok {
			return nil, nil, false
		}
	}
	return vs, b, true
}

func appendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Float64:
		return AppendFloat64(buf, v.Float())
	case reflect.Int, reflect.Int64:
		return AppendUint64(buf, uint64(v.Int()))
	case reflect.String:
		return AppendString(buf, v.String())
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Field(i)
			if !f.CanInterface() { // an unexported field
				panic(fmt.Sprintf("binenc: field %s.%s is unexported", v.Type(), v.Type().Field(i).Name))
			}
			buf = appendValue(buf, f)
		}
		return buf
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return AppendBytes(buf, v.Bytes())
		}
		if v.IsNil() {
			return AppendUint64(buf, 0)
		}
		buf = AppendUint64(buf, uint64(v.Len())+1)
		for i := range v.Len() {
			buf = appendValue(buf, v.Index(i))
		}
		return buf
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			break
		}
		if v.IsNil() {
			return AppendUint64(buf, 0)
		}
		buf = AppendUint64(buf, uint64(v.Len())+1)
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		for _, k := range keys {
			buf = AppendString(buf, k.String())
			buf = appendValue(buf, v.MapIndex(k))
		}
		return buf
	}
	panic(fmt.Sprintf("binenc: no value encoding for %s", v.Type()))
}

func consumeValue(b []byte, v reflect.Value) ([]byte, bool) {
	var ok bool
	switch v.Kind() {
	case reflect.Float64:
		var f float64
		f, b, ok = ConsumeFloat64(b)
		v.SetFloat(f)
	case reflect.Int, reflect.Int64:
		var u uint64
		u, b, ok = ConsumeUint64(b)
		v.SetInt(int64(u))
	case reflect.String:
		var s string
		s, b, ok = ConsumeString(b)
		v.SetString(s)
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Field(i)
			if !f.CanSet() { // an unexported field
				return nil, false
			}
			if b, ok = consumeValue(b, f); !ok {
				return nil, false
			}
		}
		return b, true
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			var p []byte
			p, b, ok = ConsumeBytes(b)
			v.SetBytes(p)
			return b, ok
		}
		var n uint64
		if n, b, ok = ConsumeUint64(b); !ok || n == 0 {
			return b, ok // count 0 is nil
		}
		// Every element takes at least a word (an empty struct, which
		// no encoded type holds, aside), so a count past the bytes
		// left is corrupt.
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
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return nil, false
		}
		var n uint64
		if n, b, ok = ConsumeUint64(b); !ok || n == 0 {
			return b, ok // count 0 is nil
		}
		if n--; n > uint64(len(b)) { // every entry takes at least two words
			return nil, false
		}
		m := reflect.MakeMapWithSize(v.Type(), int(n))
		key := reflect.New(v.Type().Key()).Elem()
		elem := reflect.New(v.Type().Elem()).Elem()
		for range n {
			var k string
			if k, b, ok = ConsumeString(b); !ok {
				return nil, false
			}
			key.SetString(k)
			elem.SetZero()
			if b, ok = consumeValue(b, elem); !ok {
				return nil, false
			}
			m.SetMapIndex(key, elem)
		}
		v.Set(m)
		return b, true
	}
	return b, ok
}

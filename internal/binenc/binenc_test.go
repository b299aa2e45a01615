package binenc

import (
	"bytes"
	"testing"
)

func TestUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 1<<64 - 1, 0xdeadbeefcafebabe} {
		buf := AppendUint64(nil, v)
		got, rest, ok := ConsumeUint64(buf)
		if !ok || got != v || len(rest) != 0 {
			t.Fatalf("round trip of %#x: got %#x ok=%v rest=%d", v, got, ok, len(rest))
		}
	}
	if _, _, ok := ConsumeUint64([]byte{1, 2, 3}); ok {
		t.Fatal("short read succeeded")
	}
}

func TestSliceRoundTrips(t *testing.T) {
	i64 := []int64{0, -1, 1 << 40, -(1 << 40), 42}
	i32 := []int32{0, -1, 1 << 30, -(1 << 30), 7}
	raw := []byte("some nested section")

	buf := AppendInt64s(nil, i64)
	buf = AppendInt32s(buf, i32)
	buf = AppendBytes(buf, raw)

	g64, buf, ok := ConsumeInt64s(buf)
	if !ok {
		t.Fatal("int64s")
	}
	g32, buf, ok := ConsumeInt32s(buf)
	if !ok {
		t.Fatal("int32s")
	}
	gb, buf, ok := ConsumeBytes(buf)
	if !ok || len(buf) != 0 {
		t.Fatalf("bytes: ok=%v trailing=%d", ok, len(buf))
	}
	for i := range i64 {
		if g64[i] != i64[i] {
			t.Fatalf("int64[%d] = %d", i, g64[i])
		}
	}
	for i := range i32 {
		if g32[i] != i32[i] {
			t.Fatalf("int32[%d] = %d", i, g32[i])
		}
	}
	if !bytes.Equal(gb, raw) {
		t.Fatalf("bytes = %q", gb)
	}
}

func TestEmptySlices(t *testing.T) {
	buf := AppendInt64s(nil, nil)
	v, rest, ok := ConsumeInt64s(buf)
	if !ok || len(v) != 0 || len(rest) != 0 {
		t.Fatalf("empty round trip: %v %d %v", v, len(rest), ok)
	}
}

// TestTruncationNeverPanics feeds every prefix of a valid encoding to
// each decoder; all must fail cleanly rather than panic or misread.
func TestTruncationNeverPanics(t *testing.T) {
	full := AppendInt64s(nil, []int64{1, 2, 3})
	for i := 0; i < len(full); i++ {
		if _, _, ok := ConsumeInt64s(full[:i]); ok {
			t.Fatalf("prefix of length %d decoded", i)
		}
	}
	full = AppendInt32s(nil, []int32{1, 2, 3})
	for i := 0; i < len(full); i++ {
		if _, _, ok := ConsumeInt32s(full[:i]); ok {
			t.Fatalf("int32 prefix of length %d decoded", i)
		}
	}
	full = AppendBytes(nil, []byte("abc"))
	for i := 0; i < len(full); i++ {
		if _, _, ok := ConsumeBytes(full[:i]); ok {
			t.Fatalf("bytes prefix of length %d decoded", i)
		}
	}
}

// TestAbsurdLengthRejected: a corrupt length prefix must not trigger a
// huge allocation.
func TestAbsurdLengthRejected(t *testing.T) {
	buf := AppendUint64(nil, 1<<62)
	if _, _, ok := ConsumeInt64s(buf); ok {
		t.Fatal("absurd length accepted")
	}
	if _, _, ok := ConsumeBytes(buf); ok {
		t.Fatal("absurd byte length accepted")
	}
}

package binenc

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// region has the shapes a trace event carries: strings, ints, floats,
// a string-keyed map and float slices whose nil and empty values differ.
type region struct {
	Machine  string
	Seq      int
	Bytes    int64
	Cycles   float64
	Attr     map[string]float64
	ProcBusy []float64
	Samples  []float64
}

func regionFixture() []region {
	return []region{
		{
			Machine: "MTA", Seq: 0, Bytes: -1 << 40, Cycles: 2048.5,
			Attr: map[string]float64{"issue": 9000.25, "mem_stall": 500, "hotspot": 12.5},
			// nil ProcBusy, sampled timeline
			Samples: []float64{1, 2, 3.5},
		},
		{
			Machine: "SMP", Seq: 1, Bytes: math.MaxInt64, Cycles: 50,
			Attr:     map[string]float64{},
			ProcBusy: []float64{50, 45, 44, 41},
		},
		{
			// nil Attr, empty (non-nil) ProcBusy
			Machine: "SMP", Seq: 2, Bytes: math.MinInt64,
			ProcBusy: []float64{},
		},
	}
}

func TestValueRoundTrip(t *testing.T) {
	want := regionFixture()
	buf := AppendList(nil, want)
	got, rest, ok := ConsumeList[region](buf)
	if !ok || len(rest) != 0 {
		t.Fatalf("decode: ok=%t, %d bytes left over", ok, len(rest))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, want)
	}
	if got[0].ProcBusy != nil || got[2].Attr != nil {
		t.Error("a nil slice or map decoded non-nil")
	}
	if got[2].ProcBusy == nil || got[1].Attr == nil {
		t.Error("an empty slice or map decoded nil")
	}
	for _, r := range want {
		v, rest, ok := ConsumeValue[region](AppendValue(nil, r))
		if !ok || len(rest) != 0 || !reflect.DeepEqual(v, r) {
			t.Errorf("value round trip = %+v, ok=%t, %d bytes left; want %+v", v, ok, len(rest), r)
		}
	}
}

// TestValueLayout pins the framing: a map writes count n+1 and its
// entries in key order whatever order they were inserted in, an int64
// one word, and a section a plain count.
func TestValueLayout(t *testing.T) {
	m := map[string]float64{}
	for _, k := range []string{"mem", "compute", "l2", "l1"} {
		m[k] = float64(len(k))
	}
	want := AppendUint64(nil, 5)
	for _, k := range []string{"compute", "l1", "l2", "mem"} {
		want = AppendFloat64(AppendString(want, k), float64(len(k)))
	}
	if got := AppendValue(nil, m); !bytes.Equal(got, want) {
		t.Errorf("map encodes as %x, want %x", got, want)
	}
	if got := AppendValue(nil, map[string]float64(nil)); !bytes.Equal(got, AppendUint64(nil, 0)) {
		t.Errorf("nil map encodes as %x", got)
	}
	if got := AppendValue(nil, int64(-2)); !bytes.Equal(got, AppendUint64(nil, 1<<64-2)) {
		t.Errorf("int64 -2 encodes as %x", got)
	}
	if got := AppendList[region](nil, nil); !bytes.Equal(got, AppendUint64(nil, 0)) {
		t.Errorf("empty section encodes as %x", got)
	}
	a, b := AppendList(nil, regionFixture()), AppendList(nil, regionFixture())
	if !bytes.Equal(a, b) {
		t.Error("two encodings of equal values differ (map order leaked into the bytes)")
	}
}

func TestValueTruncation(t *testing.T) {
	full := AppendList(nil, regionFixture())
	for n := range len(full) {
		if _, _, ok := ConsumeList[region](full[:n]); ok {
			t.Fatalf("a %d-byte truncation of a %d-byte section decoded", n, len(full))
		}
	}
	one := AppendValue(nil, regionFixture()[0])
	for n := range len(one) {
		if _, _, ok := ConsumeValue[region](one[:n]); ok {
			t.Fatalf("a %d-byte truncation of a %d-byte value decoded", n, len(one))
		}
	}
}

// TestValueOversizedCount: a map or section count far past the bytes
// left is refused, not allocated.
func TestValueOversizedCount(t *testing.T) {
	b := AppendUint64(AppendUint64(nil, 1<<61+1), 7)
	if _, _, ok := ConsumeValue[map[string]float64](b); ok {
		t.Error("a map of 2^61 entries over 8 bytes decoded")
	}
	if _, _, ok := ConsumeList[int64](b); ok {
		t.Error("a section of 2^61+1 elements over 8 bytes decoded")
	}
}

// TestValueUnsupportedTypes: a kind the codec does not cover, a map
// without string keys, or an unexported field panics on encode and
// never decodes.
func TestValueUnsupportedTypes(t *testing.T) {
	refuses(t, struct{ On bool }{true})
	refuses(t, struct{ n int }{1})
	refuses(t, map[int]float64{1: 2})
	refuses(t, uint32(3))
}

func refuses[T any](t *testing.T, v T) {
	t.Helper()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("AppendValue(%#v) did not panic", v)
			}
		}()
		AppendValue(nil, v)
	}()
	if got, _, ok := ConsumeValue[T](make([]byte, 64)); ok {
		t.Errorf("ConsumeValue decoded %#v", got)
	}
}

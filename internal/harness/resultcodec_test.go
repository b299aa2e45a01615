package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// TestResultEncodings pins the stored bytes of every memoized result
// shape: a warm cache written by one version must replay under the
// next, so a change to any of these digests needs a ResultSchema bump.
// Each value also round-trips exactly, and no strict prefix of its
// encoding decodes.
func TestResultEncodings(t *testing.T) {
	dyn := func(conflicts []int) ColoringDynamics {
		return ColoringDynamics{Input: "rmat(s=10,m=8n)", N: 1024, M: 8192,
			SeqColors: 17, SpecColors: 19, Rounds: 3, Conflicts: conflicts}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"pointPair", encodingCase(pointPair{MTA: Point{X: 65536, Seconds: 0.0123}, SMP: Point{X: 65536, Seconds: 0.0456}},
			"5d7621c8b302309b8c1cdbb9295ca357fd0f99da49fcce115eda8f06fe4ae265")},
		{"float64", encodingCase(0.8125,
			"bd9ce34c332828779b3a132c23162b231239713d63411da6487e8af579ecbe2b")},
		{"ColoringDynamics/nil", encodingCase(dyn(nil),
			"cd5c23d95eed2a17600e88b47af0c8df70e8b29cf518736999098a7bb7428942")},
		{"ColoringDynamics/empty", encodingCase(dyn([]int{}),
			"e59d78136483c3556a181d187353468af9384d2561283083d670b57b87db2955")},
		{"ColoringDynamics/full", encodingCase(dyn([]int{41, 5, 0}),
			"756b7eb738b7a81a3e87fa84b81826696140ef117d922d58d23195ab1f1c8ba1")},
		{"ColoringRow", encodingCase(ColoringRow{Input: "mesh(32x32)", Procs: 4, MTASeconds: 0.00125, SMPSeconds: 0.0075},
			"907ba37c998a2cd58ce96d4a8e6f6b402af6e0071f914ed1c425142684a2fc0e")},
		{"SaturationRow", encodingCase(SaturationRow{Procs: 2, N: 2000, Utilization: 0.96875},
			"03e325b59f4ea7d69f49ddf8d64884d8492ed78cb237b8079438889de3b320d8")},
		{"StreamsRow", encodingCase(StreamsRow{Streams: 40, Seconds: 0.03125, Utilization: 0.875},
			"099e2dd1760840e2afa284e3d7f0470c54a60be96838ae509e4108106db232b0")},
		{"TreeEvalRow", encodingCase(TreeEvalRow{Leaves: 4096, MTASeconds: 0.0025, SMPSeconds: 0.0105},
			"21d7ac751b22c6900e83f98da2aecd6821bc9abd9c9f79b8b186f73a78956b22")},
		{"AblationRow", encodingCase(AblationRow{Config: "s=8p (32)", Seconds: 0.015625, Extra: "paper's choice"},
			"2cb972e7acf4fbb91d8898240dedc4d321a5c49c4bc14ec508aeff9de1897f45")},
		{"profPoint", encodingCase(profPoint{Cycles: 123456, Seconds: 0.000625},
			"7987d969af9723f09e7d2ff3740c05388bcbe93427d9caf7ec755a78a7564c02")},
		{"stdout", encodingCase([]byte("ranks verified ok\nmachine mta p=2\n"),
			"54b25fccd4d5b024d24a6e8e9089ef303b9e941faa9e272651e6b37207acf9ee")},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// encodingCase checks v's encoding against a pinned SHA-256, its
// round trip, and that every strict prefix of it is refused.
func encodingCase[T any](v T, sha string) func(t *testing.T) {
	return func(t *testing.T) {
		b := appendResult(nil, v)
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sha {
			t.Errorf("encoding %x\nhas SHA-256 %s, want %s", b, got, sha)
		}
		got, rest, ok := consumeResult[T](b)
		if !ok || len(rest) != 0 || !reflect.DeepEqual(got, v) {
			t.Errorf("round trip = %#v, %d bytes left, ok=%t; want %#v", got, len(rest), ok, v)
		}
		for i := range b {
			if _, _, ok := consumeResult[T](b[:i]); ok {
				t.Fatalf("a %d-byte prefix of the %d-byte encoding decoded", i, len(b))
			}
		}
	}
}

// TestResultDecodeOversizedCount: a slice count far past the bytes
// left is refused, not allocated. 2^61 elements of 8 bytes wrap a
// 64-bit byte count to zero, so a check on 8*n alone lets it through
// to a make that panics.
func TestResultDecodeOversizedCount(t *testing.T) {
	b := appendResult(nil, ColoringDynamics{Input: "x", N: 1})
	b = b[:len(b)-8] // drop the nil Conflicts count
	b = binary.LittleEndian.AppendUint64(b, 1<<61+1)
	b = binary.LittleEndian.AppendUint64(b, 7)
	if _, _, ok := consumeResult[ColoringDynamics](b); ok {
		t.Fatal("a count of 2^61 elements over 8 bytes decoded")
	}
}

// TestResultUnsupportedTypes: a kind the encoding does not cover, or
// an unexported field, panics on encode and never decodes.
func TestResultUnsupportedTypes(t *testing.T) {
	refusesType(t, struct{ On bool }{true})
	refusesType(t, struct{ n int }{1})
	refusesType(t, map[string]int{"a": 1})
}

func refusesType[T any](t *testing.T, v T) {
	t.Helper()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("appendResult(%#v) did not panic", v)
			}
		}()
		appendResult(nil, v)
	}()
	if got, _, ok := consumeResult[T](make([]byte, 64)); ok {
		t.Errorf("consumeResult decoded %#v", got)
	}
}

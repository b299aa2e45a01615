package harness

import (
	"pargraph/internal/binenc"
	"pargraph/internal/sweep"
)

// Hand-rolled binenc codecs for the memoized result types (see
// memo.go). Each append/consume pair must round-trip its type exactly —
// a warm cell's decoded value feeds the same renderers as a cold cell's
// computed one, and the artifacts must come out byte-identical. The
// codecs live in-package so the result structs keep their natural field
// visibility; any change to an encoding here requires a ResultSchema
// bump.

// pointPair is one fig1/fig2 cell's outcome: the MTA and SMP points.
type pointPair struct {
	MTA Point
	SMP Point
}

func appendPointPair(buf []byte, v pointPair) []byte {
	buf = binenc.AppendFloat64(buf, v.MTA.X)
	buf = binenc.AppendFloat64(buf, v.MTA.Seconds)
	buf = binenc.AppendFloat64(buf, v.SMP.X)
	buf = binenc.AppendFloat64(buf, v.SMP.Seconds)
	return buf
}

func consumePointPair(b []byte) (pointPair, []byte, bool) {
	var v pointPair
	var ok bool
	if v.MTA.X, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.MTA.Seconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.SMP.X, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.SMP.Seconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	return v, b, true
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

func appendF64(buf []byte, v float64) []byte { return binenc.AppendFloat64(buf, v) }

func consumeF64(b []byte) (float64, []byte, bool) { return binenc.ConsumeFloat64(b) }

// appendIntsNil / consumeIntsNil length-prefix an []int while keeping
// nil distinct from empty (count 0 = nil, count n+1 = n elements):
// ColoringDynamics.Conflicts renders differently as JSON null vs [].
func appendIntsNil(buf []byte, v []int) []byte {
	if v == nil {
		return binenc.AppendUint64(buf, 0)
	}
	buf = binenc.AppendUint64(buf, uint64(len(v))+1)
	for _, x := range v {
		buf = binenc.AppendUint64(buf, uint64(x))
	}
	return buf
}

func consumeIntsNil(b []byte) ([]int, []byte, bool) {
	n, b, ok := binenc.ConsumeUint64(b)
	if !ok {
		return nil, nil, false
	}
	if n == 0 {
		return nil, b, true
	}
	n--
	if uint64(len(b)) < 8*n {
		return nil, nil, false
	}
	v := make([]int, n)
	for i := range v {
		var u uint64
		if u, b, ok = binenc.ConsumeUint64(b); !ok {
			return nil, nil, false
		}
		v[i] = int(u)
	}
	return v, b, true
}

func appendColoringDynamics(buf []byte, v ColoringDynamics) []byte {
	buf = binenc.AppendString(buf, v.Input)
	buf = binenc.AppendUint64(buf, uint64(v.N))
	buf = binenc.AppendUint64(buf, uint64(v.M))
	buf = binenc.AppendUint64(buf, uint64(v.SeqColors))
	buf = binenc.AppendUint64(buf, uint64(v.SpecColors))
	buf = binenc.AppendUint64(buf, uint64(v.Rounds))
	buf = appendIntsNil(buf, v.Conflicts)
	return buf
}

func consumeColoringDynamics(b []byte) (ColoringDynamics, []byte, bool) {
	var v ColoringDynamics
	var ok bool
	var u uint64
	if v.Input, b, ok = binenc.ConsumeString(b); !ok {
		return v, nil, false
	}
	for _, dst := range []*int{&v.N, &v.M, &v.SeqColors, &v.SpecColors, &v.Rounds} {
		if u, b, ok = binenc.ConsumeUint64(b); !ok {
			return v, nil, false
		}
		*dst = int(u)
	}
	if v.Conflicts, b, ok = consumeIntsNil(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

func appendColoringRow(buf []byte, v ColoringRow) []byte {
	buf = binenc.AppendString(buf, v.Input)
	buf = binenc.AppendUint64(buf, uint64(v.Procs))
	buf = binenc.AppendFloat64(buf, v.MTASeconds)
	buf = binenc.AppendFloat64(buf, v.SMPSeconds)
	return buf
}

func consumeColoringRow(b []byte) (ColoringRow, []byte, bool) {
	var v ColoringRow
	var ok bool
	var u uint64
	if v.Input, b, ok = binenc.ConsumeString(b); !ok {
		return v, nil, false
	}
	if u, b, ok = binenc.ConsumeUint64(b); !ok {
		return v, nil, false
	}
	v.Procs = int(u)
	if v.MTASeconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.SMPSeconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

func appendSaturationRow(buf []byte, v SaturationRow) []byte {
	buf = binenc.AppendUint64(buf, uint64(v.Procs))
	buf = binenc.AppendUint64(buf, uint64(v.N))
	buf = binenc.AppendFloat64(buf, v.Utilization)
	return buf
}

func consumeSaturationRow(b []byte) (SaturationRow, []byte, bool) {
	var v SaturationRow
	var ok bool
	var u uint64
	if u, b, ok = binenc.ConsumeUint64(b); !ok {
		return v, nil, false
	}
	v.Procs = int(u)
	if u, b, ok = binenc.ConsumeUint64(b); !ok {
		return v, nil, false
	}
	v.N = int(u)
	if v.Utilization, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

func appendStreamsRow(buf []byte, v StreamsRow) []byte {
	buf = binenc.AppendUint64(buf, uint64(v.Streams))
	buf = binenc.AppendFloat64(buf, v.Seconds)
	buf = binenc.AppendFloat64(buf, v.Utilization)
	return buf
}

func consumeStreamsRow(b []byte) (StreamsRow, []byte, bool) {
	var v StreamsRow
	var ok bool
	var u uint64
	if u, b, ok = binenc.ConsumeUint64(b); !ok {
		return v, nil, false
	}
	v.Streams = int(u)
	if v.Seconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.Utilization, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

func appendTreeEvalRow(buf []byte, v TreeEvalRow) []byte {
	buf = binenc.AppendUint64(buf, uint64(v.Leaves))
	buf = binenc.AppendFloat64(buf, v.MTASeconds)
	buf = binenc.AppendFloat64(buf, v.SMPSeconds)
	return buf
}

func consumeTreeEvalRow(b []byte) (TreeEvalRow, []byte, bool) {
	var v TreeEvalRow
	var ok bool
	var u uint64
	if u, b, ok = binenc.ConsumeUint64(b); !ok {
		return v, nil, false
	}
	v.Leaves = int(u)
	if v.MTASeconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.SMPSeconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

func appendAblationRow(buf []byte, v AblationRow) []byte {
	buf = binenc.AppendString(buf, v.Config)
	buf = binenc.AppendFloat64(buf, v.Seconds)
	buf = binenc.AppendString(buf, v.Extra)
	return buf
}

func consumeAblationRow(b []byte) (AblationRow, []byte, bool) {
	var v AblationRow
	var ok bool
	if v.Config, b, ok = binenc.ConsumeString(b); !ok {
		return v, nil, false
	}
	if v.Seconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.Extra, b, ok = binenc.ConsumeString(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

// profPoint is one profile cell's model numbers (its events travel in
// the shared trace section of the memo payload).
type profPoint struct {
	Cycles  float64
	Seconds float64
}

func appendProfPoint(buf []byte, v profPoint) []byte {
	buf = binenc.AppendFloat64(buf, v.Cycles)
	return binenc.AppendFloat64(buf, v.Seconds)
}

func consumeProfPoint(b []byte) (profPoint, []byte, bool) {
	var v profPoint
	var ok bool
	if v.Cycles, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	if v.Seconds, b, ok = binenc.ConsumeFloat64(b); !ok {
		return v, nil, false
	}
	return v, b, true
}

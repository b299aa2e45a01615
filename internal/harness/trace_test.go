package harness

// Trace-layer guarantees: the recorded event stream — and every artifact
// rendered from it — is bit-identical for any host worker count, every
// event's attribution sums exactly to the region's slot-cycle capacity,
// and a machine with no sink attached pays (nearly) nothing.

import (
	"bytes"
	"math"
	"testing"

	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// traceProfile runs one profile on e traced into a fresh recorder,
// sampling MTA regions every sample cycles, as cmd/profile does.
func traceProfile(t *testing.T, e *Env, params ProfileParams, sample float64) *trace.Recorder {
	t.Helper()
	rec := &trace.Recorder{}
	e.TraceSink, e.TraceSampleCycles = rec, sample
	if _, err := e.RunProfile(params); err != nil {
		t.Fatal(err)
	}
	return rec
}

// profileArtifacts runs one traced profile on e and returns the
// rendered Chrome JSON and attribution CSV.
func profileArtifacts(t *testing.T, e *Env, params ProfileParams, sample float64) (chrome, csv []byte) {
	t.Helper()
	rec := traceProfile(t, e, params, sample)
	var cb, ab bytes.Buffer
	if err := rec.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteAttributionCSV(&ab); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), ab.Bytes()
}

func TestTraceWorkerDeterminism(t *testing.T) {
	forceHostParallelism(t, 8)
	cases := []struct {
		params ProfileParams
		sample float64
	}{
		{ProfileParams{Kernel: "fig1", Machine: "both", N: 30000, Procs: 8, Layout: list.Random, Seed: 0x51}, 500},
		{ProfileParams{Kernel: "fig2", Machine: "both", N: 4096, Procs: 8, Seed: 0x52}, 1000},
		{ProfileParams{Kernel: "coloring", Machine: "both", N: 4096, Procs: 8, Seed: 0x53}, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.params.Kernel, func(t *testing.T) {
			chrome1, csv1 := profileArtifacts(t, &Env{HostWorkers: 1}, tc.params, tc.sample)
			if len(chrome1) == 0 || len(csv1) == 0 {
				t.Fatal("empty artifacts")
			}
			for _, w := range []int{2, 4, 8} {
				chromeW, csvW := profileArtifacts(t, &Env{HostWorkers: w}, tc.params, tc.sample)
				if !bytes.Equal(chrome1, chromeW) {
					t.Errorf("Chrome trace differs between workers=1 and workers=%d", w)
				}
				if !bytes.Equal(csv1, csvW) {
					t.Errorf("attribution CSV differs between workers=1 and workers=%d", w)
				}
			}
		})
	}
}

// TestTraceAttributionAccounting pins the core invariant: every event's
// categories sum to the region's capacity (Cycles × Procs), useful work
// never exceeds capacity, and SMP per-processor busy cycles sum to the
// memory-hierarchy categories.
func TestTraceAttributionAccounting(t *testing.T) {
	for _, kernel := range []string{"fig1", "fig2", "prefix", "treecon", "coloring"} {
		t.Run(kernel, func(t *testing.T) {
			rec := traceProfile(t, testEnv(), ProfileParams{
				Kernel: kernel, Machine: "both", N: 4096, Procs: 8,
				Layout: list.Random, Seed: 0x77,
			}, 0)
			if len(rec.Events) == 0 {
				t.Fatal("no events recorded")
			}
			for _, e := range rec.Events {
				capacity := e.Cycles * float64(e.Procs)
				var sum float64
				for _, v := range e.Attr {
					if v < 0 {
						t.Fatalf("%s event %d: negative attribution %v", e.Machine, e.Seq, e.Attr)
					}
					sum += v
				}
				if math.Abs(sum-capacity) > 1e-6*(1+capacity) {
					t.Errorf("%s %s #%d: attribution sums to %.3f, capacity is %.3f", e.Machine, e.Kind, e.Seq, sum, capacity)
				}
				if e.Issued > capacity*(1+1e-9) {
					t.Errorf("%s %s #%d: issued %.3f exceeds capacity %.3f", e.Machine, e.Kind, e.Seq, e.Issued, capacity)
				}
				if e.Machine == "SMP" && e.ProcBusy != nil {
					var busy float64
					for _, b := range e.ProcBusy {
						busy += b
					}
					var hier float64
					for _, cat := range []string{trace.CatCompute, trace.CatL1, trace.CatL2, trace.CatMem} {
						hier += e.Attr[cat]
					}
					if math.Abs(busy-hier) > 1e-6*(1+busy) {
						t.Errorf("SMP #%d: proc busy %.3f != hierarchy cycles %.3f", e.Seq, busy, hier)
					}
				}
			}
		})
	}
}

// TestTraceSamplesSumToIssued checks the within-region timeline is
// exact: bucket contents integrate to the region's issue slots.
func TestTraceSamplesSumToIssued(t *testing.T) {
	rec := traceProfile(t, testEnv(), ProfileParams{
		Kernel: "fig1", Machine: "mta", N: 20000, Procs: 8,
		Layout: list.Random, Seed: 0x88,
	}, 250)
	sampled := 0
	for _, e := range rec.Events {
		if e.Samples == nil {
			continue
		}
		sampled++
		var sum float64
		for _, s := range e.Samples {
			sum += s
		}
		if math.Abs(sum-e.Issued) > 1e-6*(1+e.Issued) {
			t.Errorf("MTA #%d: samples sum to %.3f, issued %.3f", e.Seq, sum, e.Issued)
		}
	}
	if sampled == 0 {
		t.Fatal("no sampled regions recorded")
	}
}

// BenchmarkTraceOverhead compares list ranking with no sink (the
// default; regions pay one nil check) against a recording sink, so the
// cost of leaving tracing off stays visibly near zero.
func BenchmarkTraceOverhead(b *testing.B) {
	const n = 1 << 15
	l := list.New(n, list.Random, 7)
	run := func(b *testing.B, sink trace.Sink) {
		for i := 0; i < b.N; i++ {
			m := mta.New(mta.DefaultConfig(8))
			if sink != nil {
				m.SetSink(sink)
			}
			listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
		}
	}
	b.Run("nosink", func(b *testing.B) { run(b, nil) })
	b.Run("recorder", func(b *testing.B) {
		rec := &trace.Recorder{}
		b.ResetTimer()
		run(b, rec)
	})
}

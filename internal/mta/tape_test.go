package mta_test

// A recorded tape played on any machine of the tape's charge class must
// be indistinguishable from a live run of the kernel on that machine:
// the same Stats bits and the same attribution events. These tests pin
// that on the paper's kernels, which is why they live outside package
// mta (the kernels import it).

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"pargraph/internal/binenc"
	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// tapeKernel is one kernel run the played-equals-live tests replay.
type tapeKernel struct {
	name     string
	maxExact int // 0 keeps the machine's default
	run      func(m *mta.Machine)
}

func tapeKernels() []tapeKernel {
	const n = 40000 // walk regions of n/10 shard at two host workers
	ordered := list.New(n, list.Ordered, 3)
	random := list.New(n, list.Random, 3)
	rank := func(l *list.List) func(m *mta.Machine) {
		return func(m *mta.Machine) { listrank.RankMTA(l, m, n/10, sim.SchedDynamic) }
	}
	g := graph.RandomGnm(3000, 12000, 5)
	r := graph.RMAT(10, 8<<10, 6)
	return []tapeKernel{
		{name: "RankMTA/Ordered", run: rank(ordered)},
		{name: "RankMTA/Random", run: rank(random)},
		{name: "RankMTA/Ordered/aggregate", maxExact: 1000, run: rank(ordered)},
		{name: "RankMTA/Random/aggregate", maxExact: 1000, run: rank(random)},
		{name: "LabelMTA", run: func(m *mta.Machine) { concomp.LabelMTA(g, m, sim.SchedDynamic) }},
		{name: "ColorMTA", run: func(m *mta.Machine) { coloring.ColorMTA(r, m, sim.SchedDynamic) }},
		{name: "ColorMTA/block", run: func(m *mta.Machine) { coloring.ColorMTA(r, m, sim.SchedBlock) }},
		{name: "Serial+hotspot", run: hotspotKernel},
		{name: "item codes", run: itemCodesKernel},
	}
}

// itemCodesKernel's regions have 200, 3,000 and 70,000 distinct items:
// a tape stores them as one-byte codes, two-byte codes and raw items.
func itemCodesKernel(m *mta.Machine) {
	for _, r := range []struct{ n, distinct int }{{2000, 200}, {5000, 3000}, {70000, 70000}} {
		m.ParallelFor(r.n, sim.SchedDynamic, func(i int, t *mta.Thread) {
			t.Instr(1 + i%r.distinct)
			t.Load(uint64(i))
		})
	}
}

// hotspotKernel exercises what the paper's kernels charge least: serial
// sections, FEB hotspots (in a serial section and in a parallel loop),
// an empty loop and a static-block loop.
func hotspotKernel(m *mta.Machine) {
	m.Serial(func(t *mta.Thread) {
		for i := 0; i < 50; i++ {
			t.SyncLoad(7)
			t.Instr(2)
		}
		t.Store(9)
	})
	m.ParallelFor(3000, sim.SchedDynamic, func(i int, t *mta.Thread) {
		t.Instr(1)
		t.SyncLoad(uint64(1<<33) + uint64(i%3))
		t.SyncStore(uint64(1 << 34))
		t.FetchAdd(uint64(1 << 35))
		t.LoadN(uint64(16*i), 4)
	})
	m.Barrier()
	m.ParallelFor(0, sim.SchedDynamic, func(int, *mta.Thread) {})
	m.ParallelFor(500, sim.SchedBlock, func(i int, t *mta.Thread) {
		t.Load2(uint64(i), uint64(i)+1<<20)
		t.StoreN(uint64(8*i), 3)
	})
	m.Serial(func(t *mta.Thread) { t.Instr(5) })
}

// playConfigs are the machines every tape plays on: each processor count
// of the sweeps, and the streams sweep's stream counts.
func playConfigs() []mta.Config {
	var cfgs []mta.Config
	for _, p := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, mta.DefaultConfig(p))
	}
	for _, s := range []int{1, 40, 100} {
		cfg := mta.DefaultConfig(4)
		cfg.UseStreams = s
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// statsBits renders Stats with every float as its IEEE bits.
func statsBits(s mta.Stats) string {
	f := func(v float64) uint64 { return math.Float64bits(v) }
	return fmt.Sprintf("cycles=%x issued=%x stalls=%x refs=%d instrs=%d fa=%d sync=%d retries=%d regions=%d barriers=%d serial=%d",
		f(s.Cycles), f(s.Issued), f(s.BankStalls), s.Refs, s.Instrs, s.FetchAdds, s.SyncOps, s.Retries, s.Regions, s.Barriers, s.SerialSpans)
}

// timed is one machine's observable outcome: its Stats, and its event
// stream in the bit-exact binary encoding.
type timed struct {
	stats  string
	events []byte
}

// newMachine builds a machine for cfg with the kernel's threshold and,
// when traced, a recorder sampling every 500 cycles.
func newMachine(cfg mta.Config, k tapeKernel, traced bool) (*mta.Machine, *trace.Recorder) {
	m := mta.New(cfg)
	if k.maxExact > 0 {
		mta.SetMaxExact(m, k.maxExact)
	}
	if !traced {
		return m, nil
	}
	rec := &trace.Recorder{}
	m.SetSink(rec)
	m.SetTraceSampling(500)
	return m, rec
}

func outcome(m *mta.Machine, rec *trace.Recorder) timed {
	out := timed{stats: statsBits(m.Stats())}
	if rec != nil {
		out.events = binenc.AppendList(nil, rec.Events)
	}
	return out
}

// TestPlayMatchesLive records each kernel once, on one processor with two
// host workers, and plays the tape on every processor and stream count:
// Stats (as bits) and, traced with sampling, the event stream must equal
// a live run of the kernel on that configuration.
func TestPlayMatchesLive(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, k := range tapeKernels() {
		t.Run(k.name, func(t *testing.T) {
			rm, _ := newMachine(mta.DefaultConfig(1), k, false)
			rm.SetHostWorkers(2)
			tape, err := rm.RecordTape(func(m *mta.Machine) error { k.run(m); return nil })
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range playConfigs() {
				for _, traced := range []bool{false, true} {
					lm, lrec := newMachine(cfg, k, traced)
					k.run(lm)
					live := outcome(lm, lrec)

					pm, prec := newMachine(cfg, k, traced)
					if err := pm.Play(tape); err != nil {
						t.Fatal(err)
					}
					played := outcome(pm, prec)
					where := fmt.Sprintf("p=%d streams=%d traced=%t", cfg.Procs, cfg.UseStreams, traced)
					if played.stats != live.stats {
						t.Errorf("%s: played stats differ from live:\nplayed %s\n  live %s", where, played.stats, live.stats)
					}
					if !bytes.Equal(played.events, live.events) {
						t.Errorf("%s: played event stream differs from live", where)
					}
				}
			}
		})
	}
}

// TestRecordingIsLive pins that recording changes nothing on the
// recording machine itself.
func TestRecordingIsLive(t *testing.T) {
	k := tapeKernels()[1]
	lm, lrec := newMachine(mta.DefaultConfig(2), k, true)
	k.run(lm)
	rm, rrec := newMachine(mta.DefaultConfig(2), k, true)
	if _, err := rm.RecordTape(func(m *mta.Machine) error { k.run(m); return nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := outcome(rm, rrec), outcome(lm, lrec); got.stats != want.stats || !bytes.Equal(got.events, want.events) {
		t.Fatalf("recording machine diverged from a live run:\n got %s\nwant %s", got.stats, want.stats)
	}
}

// TestPlayRefusesOtherClass: a tape plays only on machines whose charge
// class matches the recording's; timing-only fields may differ freely.
func TestPlayRefusesOtherClass(t *testing.T) {
	rm := mta.New(mta.DefaultConfig(1))
	tape, err := rm.RecordTape(func(m *mta.Machine) error {
		hotspotKernel(m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refuse := map[string]func(*mta.Config){
		"MemLatency": func(c *mta.Config) { c.MemLatency = 150 },
		"Lookahead":  func(c *mta.Config) { c.Lookahead = 4 },
		"DynChunk":   func(c *mta.Config) { c.DynChunk = 1 },
		"HashMemory": func(c *mta.Config) { c.HashMemory = false },
		"Banks=384":  func(c *mta.Config) { *c = mta.DefaultConfig(3) }, // 384 banks tally per bank
		"Banks=2048": func(c *mta.Config) { *c = mta.DefaultConfig(16) },
	}
	for name, mut := range refuse {
		cfg := mta.DefaultConfig(1)
		mut(&cfg)
		m := mta.New(cfg)
		if err := m.Play(tape); err == nil {
			t.Errorf("%s: Play accepted a tape of another charge class", name)
		}
		if m.Stats() != (mta.Stats{}) {
			t.Errorf("%s: a refused tape still charged the machine", name)
		}
	}
	accept := map[string]func(*mta.Config){
		"Procs":          func(c *mta.Config) { *c = mta.DefaultConfig(8) },
		"UseStreams":     func(c *mta.Config) { c.UseStreams = 7 },
		"StreamsPerProc": func(c *mta.Config) { c.StreamsPerProc, c.UseStreams = 64, 64 },
		"ClockMHz":       func(c *mta.Config) { c.ClockMHz = 100 },
		"BankCycle":      func(c *mta.Config) { c.BankCycle = 3 },
		"HotspotCycle":   func(c *mta.Config) { c.HotspotCycle = 2 },
		"BarrierCycles":  func(c *mta.Config) { c.BarrierCycles = 10 },
		"Banks=64":       func(c *mta.Config) { c.Banks = 64 },
	}
	for name, mut := range accept {
		cfg := mta.DefaultConfig(1)
		mut(&cfg)
		if err := mta.New(cfg).Play(tape); err != nil {
			t.Errorf("%s: Play refused a tape of the same charge class: %v", name, err)
		}
	}
}

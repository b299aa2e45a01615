package mta

import (
	"math"
	"testing"

	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// walkBody emulates one pointer-chasing step: a few instructions and one
// dependent load, the demand profile of a list-ranking walk node.
func walkBody(nodes int) func(i int, t *Thread) {
	return func(i int, t *Thread) {
		for k := 0; k < nodes; k++ {
			t.Instr(3)
			t.LoadDep(uint64(i*nodes + k))
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		if err := DefaultConfig(p).validate(); err != nil {
			t.Fatalf("DefaultConfig(%d) invalid: %v", p, err)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(1); c.UseStreams = 500; return c }(),
		func() Config { c := DefaultConfig(1); c.MemLatency = 0; return c }(),
		func() Config { c := DefaultConfig(1); c.DynChunk = 0; return c }(),
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAbundantParallelismSaturates(t *testing.T) {
	// 100 streams × ~10-node walks is the paper's recipe for ~100%
	// utilization (§3). 1000 walks on one processor should saturate.
	m := New(DefaultConfig(1))
	m.ParallelFor(1000, sim.SchedDynamic, walkBody(10))
	if u := m.Utilization(); u < 0.95 {
		t.Fatalf("utilization = %.3f, want >= 0.95 with abundant parallelism", u)
	}
}

func TestScantParallelismStarves(t *testing.T) {
	// 4 walks on a 100-stream processor: the processor mostly waits on
	// memory.
	m := New(DefaultConfig(1))
	m.ParallelFor(4, sim.SchedDynamic, walkBody(10))
	if u := m.Utilization(); u > 0.5 {
		t.Fatalf("utilization = %.3f, want < 0.5 with 4 threads", u)
	}
}

func TestScalingWithProcessors(t *testing.T) {
	// Saturated work should scale nearly linearly in p.
	times := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8} {
		m := New(DefaultConfig(p))
		m.ParallelFor(1000*p*2, sim.SchedDynamic, walkBody(10))
		times[p] = m.Cycles() / 1 // total work doubles with p in this loop
	}
	// Normalize: time(p) for n ∝ p should be flat if scaling is perfect.
	for _, p := range []int{2, 4, 8} {
		ratio := times[p] / times[1]
		if ratio > 1.3 {
			t.Errorf("weak-scaling blowup at p=%d: ratio %.2f", p, ratio)
		}
	}
}

func TestStrongScaling(t *testing.T) {
	const n = 16000
	t1 := func() float64 {
		m := New(DefaultConfig(1))
		m.ParallelFor(n, sim.SchedDynamic, walkBody(10))
		return m.Cycles()
	}()
	t8 := func() float64 {
		m := New(DefaultConfig(8))
		m.ParallelFor(n, sim.SchedDynamic, walkBody(10))
		return m.Cycles()
	}()
	speedup := t1 / t8
	if speedup < 6 || speedup > 8.5 {
		t.Fatalf("p=8 speedup = %.2f, want near 8", speedup)
	}
}

func TestOrderIndependence(t *testing.T) {
	// The machine has no caches and hashes addresses: sequential and
	// random address patterns must cost the same. This is the MTA half of
	// Fig. 1's "ordered ≈ random" result.
	run := func(stride uint64) float64 {
		m := New(DefaultConfig(1))
		m.ParallelFor(1000, sim.SchedDynamic, func(i int, t *Thread) {
			for k := 0; k < 10; k++ {
				t.Instr(3)
				t.LoadDep(uint64(i*10+k) * stride)
			}
		})
		return m.Cycles()
	}
	seq, rnd := run(1), run(7919)
	if rel := math.Abs(seq-rnd) / seq; rel > 0.02 {
		t.Fatalf("ordered %.0f vs strided %.0f differ by %.1f%%", seq, rnd, rel*100)
	}
}

func TestBankConflictsWithoutHashing(t *testing.T) {
	// With hashing off, a power-of-two stride hammers one memory bank,
	// which can serve only one reference per cycle; the aggregate issue
	// rate of several processors exceeds that, so the region slows.
	// Hashing spreads the same refs evenly (ablation A2). A single
	// processor cannot exceed one reference per cycle by itself, so the
	// effect is inherently multi-processor.
	run := func(hashed bool) float64 {
		cfg := DefaultConfig(8)
		cfg.HashMemory = hashed
		m := New(cfg)
		m.ParallelFor(16000, sim.SchedDynamic, func(i int, t *Thread) {
			for k := 0; k < 10; k++ {
				t.Instr(1)
				// stride equal to the bank count: all refs to one bank.
				t.Load(uint64(i*10+k) * uint64(cfg.Banks))
			}
		})
		return m.Cycles()
	}
	unhashed, hashed := run(false), run(true)
	if unhashed < 1.8*hashed {
		t.Fatalf("stride conflicts: unhashed %.0f vs hashed %.0f, want >= 1.8x", unhashed, hashed)
	}
}

func TestHotspotSerializes(t *testing.T) {
	// Every thread FEB-updating one word must serialize (§2.2 hotspots).
	run := func(spread bool) float64 {
		m := New(DefaultConfig(1))
		m.ParallelFor(4000, sim.SchedDynamic, func(i int, t *Thread) {
			addr := uint64(0)
			if spread {
				addr = uint64(i)
			}
			t.Instr(2)
			t.SyncLoad(addr)
			t.SyncStore(addr)
		})
		return m.Cycles()
	}
	hot, cool := run(false), run(true)
	if hot < 2*cool {
		t.Fatalf("hotspot %.0f vs spread %.0f, want >= 2x serialization", hot, cool)
	}
	m := New(DefaultConfig(1))
	m.ParallelFor(100, sim.SchedDynamic, func(i int, t *Thread) { t.SyncStore(0) })
	if m.Stats().Retries == 0 {
		t.Fatal("contended FEB word recorded no retries")
	}
}

func TestSerialSectionCostsCriticalPath(t *testing.T) {
	m := New(DefaultConfig(4))
	m.Serial(func(t *Thread) {
		t.Instr(50)
		for k := 0; k < 10; k++ {
			t.LoadDep(uint64(k))
		}
	})
	want := 50.0 + 10*m.Config().MemLatency
	if math.Abs(m.Cycles()-want) > 1 {
		t.Fatalf("serial cycles = %.0f, want %.0f", m.Cycles(), want)
	}
	if u := m.Utilization(); u > 0.2 {
		t.Fatalf("serial section utilization %.2f unreasonably high for 4 procs", u)
	}
}

func TestBarrierCost(t *testing.T) {
	m := New(DefaultConfig(2))
	for i := 0; i < 5; i++ {
		m.Barrier()
	}
	if got, want := m.Cycles(), 5*m.Config().BarrierCycles; got != want {
		t.Fatalf("5 barriers cost %.0f cycles, want %.0f", got, want)
	}
	if m.Stats().Barriers != 5 {
		t.Fatalf("barrier count = %d, want 5", m.Stats().Barriers)
	}
}

func TestSecondsConversion(t *testing.T) {
	m := New(DefaultConfig(1))
	m.stats.Cycles = 220e6 // one second at 220 MHz
	if s := m.Seconds(); math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("Seconds() = %v, want 1.0", s)
	}
}

func TestResetClearsStats(t *testing.T) {
	m := New(DefaultConfig(1))
	m.ParallelFor(100, sim.SchedDynamic, walkBody(5))
	m.Barrier()
	m.Reset()
	if m.Cycles() != 0 || m.Stats() != (Stats{}) {
		t.Fatalf("Reset left stats: %+v", m.Stats())
	}
}

func TestDynamicSchedulingBalancesSkew(t *testing.T) {
	// Walk lengths vary wildly; dynamic scheduling (int_fetch_add) should
	// beat a static block schedule. This is the paper's §3 load-balance
	// argument and ablation A1.
	// The long walks are clustered at the front, so a static block
	// schedule lands them all on a few streams.
	body := func(i int, t *Thread) {
		n := 2
		if i < 100 {
			n = 100
		}
		for k := 0; k < n; k++ {
			t.Instr(3)
			t.LoadDep(uint64(i*1000 + k))
		}
	}
	dyn := New(DefaultConfig(1))
	dyn.ParallelFor(1600, sim.SchedDynamic, body)
	blk := New(DefaultConfig(1))
	blk.ParallelFor(1600, sim.SchedBlock, body)
	if dyn.Cycles() >= blk.Cycles() {
		t.Fatalf("dynamic %.0f not faster than block %.0f on skewed walks", dyn.Cycles(), blk.Cycles())
	}
}

func TestLargeRegionAggregatePath(t *testing.T) {
	// Above the exact-item threshold the aggregate path is used; it must
	// roughly agree with the exact path at the boundary.
	body := func(i int, t *Thread) {
		t.Instr(4)
		t.Load(uint64(i))
		t.Load(uint64(i) + 1e6)
	}
	exact := New(DefaultConfig(2))
	exact.maxExact = 1 << 20
	exact.ParallelFor(200000, sim.SchedDynamic, body)
	agg := New(DefaultConfig(2))
	agg.maxExact = 1000
	agg.ParallelFor(200000, sim.SchedDynamic, body)
	rel := math.Abs(exact.Cycles()-agg.Cycles()) / exact.Cycles()
	if rel > 0.2 {
		t.Fatalf("aggregate path diverges from exact: %.0f vs %.0f (%.1f%%)", agg.Cycles(), exact.Cycles(), rel*100)
	}
}

func TestStatsCounting(t *testing.T) {
	m := New(DefaultConfig(1))
	m.ParallelFor(10, sim.SchedBlock, func(i int, t *Thread) {
		t.Instr(7)
		t.Load(uint64(i))
		t.Store(uint64(i))
		t.LoadDep(uint64(i))
		t.FetchAdd(uint64(i))
	})
	s := m.Stats()
	if s.Instrs != 70 {
		t.Errorf("Instrs = %d, want 70", s.Instrs)
	}
	if s.Refs != 40 {
		t.Errorf("Refs = %d, want 40", s.Refs)
	}
	if s.FetchAdds != 10 {
		t.Errorf("FetchAdds = %d, want 10", s.FetchAdds)
	}
	if s.Regions != 1 {
		t.Errorf("Regions = %d, want 1", s.Regions)
	}
}

func TestEmptyParallelFor(t *testing.T) {
	m := New(DefaultConfig(1))
	res := m.ParallelFor(0, sim.SchedDynamic, func(i int, t *Thread) { t.Instr(1) })
	if res.Cycles != 0 || m.Cycles() != 0 {
		t.Fatalf("empty loop advanced the clock: %+v", res)
	}
}

func TestNegativeParallelForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative n did not panic")
		}
	}()
	New(DefaultConfig(1)).ParallelFor(-1, sim.SchedDynamic, func(int, *Thread) {})
}

func BenchmarkParallelForWalks(b *testing.B) {
	m := New(DefaultConfig(8))
	body := walkBody(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.ParallelFor(8000, sim.SchedDynamic, body)
	}
}

// TestTraceRecordsRegions: an attached sink receives one event per
// region, barrier and serial section, and their cycles add up to the
// machine's.
func TestTraceRecordsRegions(t *testing.T) {
	m := New(DefaultConfig(2))
	rec := &trace.Recorder{}
	m.SetSink(rec)
	m.ParallelFor(100, sim.SchedDynamic, walkBody(5))
	m.Barrier()
	m.Serial(func(t *Thread) { t.Instr(10) })
	ev := rec.Events
	if len(ev) != 3 {
		t.Fatalf("trace has %d events, want 3", len(ev))
	}
	if ev[0].Kind != "parallel" || ev[0].Items != 100 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Kind != "barrier" || ev[2].Kind != "serial" {
		t.Fatalf("kinds wrong: %s, %s", ev[1].Kind, ev[2].Kind)
	}
	var sum float64
	for _, e := range ev {
		sum += e.Cycles
	}
	if math.Abs(sum-m.Cycles()) > 1e-6 {
		t.Fatalf("trace cycles %.0f != machine cycles %.0f", sum, m.Cycles())
	}
}

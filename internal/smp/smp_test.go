package smp

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pargraph/internal/rng"
	"pargraph/internal/trace"
)

func TestDefaultConfigValid(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 14} {
		if err := DefaultConfig(p).validate(); err != nil {
			t.Fatalf("DefaultConfig(%d): %v", p, err)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(1); c.L1Bytes = 1000; return c }(), // not multiple of line
		func() Config { c := DefaultConfig(1); c.MemCy = 1; return c }(),      // inverted hierarchy
		func() Config { c := DefaultConfig(1); c.BusBPC = 0; return c }(),
		func() Config { c := DefaultConfig(1); c.L2HitCy = 24.5; return c }(),      // fractional latency
		func() Config { c := DefaultConfig(1); c.MemCy = math.Inf(1); return c }(), // infinite latency
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

func TestRepeatedAccessHitsL1(t *testing.T) {
	m := New(DefaultConfig(1))
	m.Phase(func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Load(64)
		}
	})
	s := m.Stats()
	if s.L1Hits != 99 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 99/1", s.L1Hits, s.Misses)
	}
}

func TestSpatialLocalityWithinLine(t *testing.T) {
	// 8-byte words on a 32-byte L1 line: one miss then three hits.
	m := New(DefaultConfig(1))
	base := m.Alloc(1 << 20)
	m.Phase(func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Load(base + uint64(i*8))
		}
	})
	s := m.Stats()
	if s.Misses != 1 || s.L1Hits != 3 {
		t.Fatalf("misses=%d l1hits=%d, want 1/3", s.Misses, s.L1Hits)
	}
}

func TestOrderedVersusRandomGap(t *testing.T) {
	// The SMP half of Fig. 1: a sequential sweep over a >L2 array is
	// several times faster than random accesses to the same array.
	const n = 1 << 20 // 8 MB of words, twice the 4 MB L2
	run := func(random bool) float64 {
		m := New(DefaultConfig(1))
		base := m.Alloc(n * 8)
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		if random {
			rng.New(1).Shuffle(order)
		}
		m.Phase(func(p *Proc) {
			for _, i := range order {
				p.Load(base + uint64(i)*8)
				p.Compute(3)
			}
		})
		return m.Cycles()
	}
	seq, rnd := run(false), run(true)
	gap := rnd / seq
	if gap < 2.5 || gap > 12 {
		t.Fatalf("random/ordered gap = %.2f (seq %.0f, rnd %.0f), want within [2.5,12]", gap, seq, rnd)
	}
}

func TestWorkingSetFitsL2(t *testing.T) {
	// Second sweep over a 1 MB array should hit L2 (or better) throughout.
	const n = 1 << 17 // 1 MB of words
	m := New(DefaultConfig(1))
	base := m.Alloc(n * 8)
	sweep := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Load(base + uint64(i)*8)
		}
	}
	m.Phase(sweep)
	missesFirst := m.Stats().Misses
	m.Phase(sweep)
	missesSecond := m.Stats().Misses - missesFirst
	if missesSecond != 0 {
		t.Fatalf("second sweep of an L2-resident array took %d memory misses", missesSecond)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// Two addresses one L1-size apart map to the same set and thrash L1,
	// but both fit easily in L2.
	m := New(DefaultConfig(1))
	cfg := m.Config()
	a := m.Alloc(cfg.L1Bytes * 2)
	b := a + uint64(cfg.L1Bytes)
	m.Phase(func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Load(a)
			p.Load(b)
		}
	})
	s := m.Stats()
	if s.L1Hits != 0 {
		t.Fatalf("conflicting lines produced %d L1 hits, want 0", s.L1Hits)
	}
	if s.L2Hits != 98 {
		t.Fatalf("L2 hits = %d, want 98", s.L2Hits)
	}
}

func TestPhaseTakesSlowestProcessor(t *testing.T) {
	m := New(DefaultConfig(4))
	m.Phase(func(p *Proc) {
		p.Compute(100 * (p.ID() + 1))
	})
	want := 400 + m.Config().PhaseCy
	if m.Cycles() != want {
		t.Fatalf("phase cycles = %v, want %v (slowest proc + dispatch)", m.Cycles(), want)
	}
}

func TestDefaultBusDoesNotBindForBlockingLoads(t *testing.T) {
	// With ~300-cycle blocking misses, 8 processors generate at most
	// 8*64B/300cy ≈ 1.7 B/cy — under the default 3.2 B/cy bus. This is
	// why the paper's SMP runs scale near-linearly to p=8: they are
	// latency-bound, not bandwidth-bound.
	const perProc = 1 << 14
	m := New(DefaultConfig(8))
	base := m.Alloc(perProc * 8 * 64 * 8)
	m.Phase(func(p *Proc) {
		stride := uint64(m.Config().L2Line)
		start := base + uint64(p.ID())*perProc*stride
		for i := 0; i < perProc; i++ {
			p.Load(start + uint64(i)*stride) // one miss per reference
		}
	})
	if m.Stats().BusStall != 0 {
		t.Fatalf("default bus saturated unexpectedly: stall=%.0f", m.Stats().BusStall)
	}
}

func narrowBusConfig(procs int) Config {
	cfg := DefaultConfig(procs)
	cfg.BusBPC = 0.25 // deliberately starved bus to exercise the bound
	return cfg
}

func TestBusSaturationStretchesPhase(t *testing.T) {
	// On a starved bus, weak scaling must flatten: each processor does
	// the same per-processor work, so a non-binding bus would keep the
	// time constant as p grows.
	const perProc = 1 << 14
	run := func(procs int) float64 {
		m := New(narrowBusConfig(procs))
		base := m.Alloc(perProc * 8 * procs * 64)
		m.Phase(func(p *Proc) {
			stride := uint64(m.Config().L2Line)
			start := base + uint64(p.ID())*perProc*stride
			for i := 0; i < perProc; i++ {
				p.Load(start + uint64(i)*stride) // one miss per reference
			}
		})
		return m.Cycles()
	}
	t1, t8 := run(1), run(8)
	if t8 < 1.5*t1 {
		t.Fatalf("bus not limiting: t1=%.0f t8=%.0f", t1, t8)
	}
}

func TestBusStallAccounted(t *testing.T) {
	m := New(narrowBusConfig(8))
	base := m.Alloc(64 << 20)
	m.Phase(func(p *Proc) {
		stride := uint64(m.Config().L2Line)
		start := base + uint64(p.ID())*(4<<20)
		for i := 0; i < 10000; i++ {
			p.Load(start + uint64(i)*stride)
		}
	})
	if m.Stats().BusStall <= 0 {
		t.Fatal("saturating phase recorded no bus stall")
	}
}

func TestBarrierCostGrowsWithProcs(t *testing.T) {
	c2 := New(DefaultConfig(2))
	c8 := New(DefaultConfig(8))
	c2.Barrier()
	c8.Barrier()
	if c8.Cycles() <= c2.Cycles() {
		t.Fatalf("barrier at p=8 (%v) not costlier than p=2 (%v)", c8.Cycles(), c2.Cycles())
	}
}

func TestAllocDisjointAndAligned(t *testing.T) {
	m := New(DefaultConfig(1))
	line := uint64(m.Config().L2Line)
	a := m.Alloc(100)
	b := m.Alloc(1)
	c := m.Alloc(0)
	d := m.Alloc(64)
	if a%line != 0 || b%line != 0 || c%line != 0 || d%line != 0 {
		t.Fatalf("allocations not line aligned: %d %d %d %d", a, b, c, d)
	}
	if b < a+100 || c <= b || d < c {
		t.Fatalf("allocations overlap: %d %d %d %d", a, b, c, d)
	}
}

func TestSequentialUsesOneProcessor(t *testing.T) {
	m := New(DefaultConfig(8))
	m.Sequential(func(p *Proc) {
		if p.ID() != 0 {
			t.Fatalf("sequential section ran on proc %d", p.ID())
		}
		p.Compute(500)
	})
	if m.Cycles() != 500 {
		t.Fatalf("sequential cycles = %v, want 500", m.Cycles())
	}
}

func TestResetClearsCachesAndStats(t *testing.T) {
	m := New(DefaultConfig(1))
	base := m.Alloc(1 << 10)
	m.Phase(func(p *Proc) { p.Load(base) })
	m.Reset()
	if m.Stats() != (Stats{}) {
		t.Fatalf("stats survived reset: %+v", m.Stats())
	}
	m.Phase(func(p *Proc) { p.Load(base) })
	if m.Stats().Misses != 1 {
		t.Fatalf("cache state survived reset: misses=%d, want 1", m.Stats().Misses)
	}
}

// TestResetRestoresAllocator pins that a Reset machine replays a kernel
// bit-identically to a fresh one: the bump allocator and the
// anti-conflict stagger counter must rewind, or reused (pooled) machines
// would hand out different addresses and hence different conflict-miss
// behaviour.
func TestResetRestoresAllocator(t *testing.T) {
	kernel := func(m *Machine) ([]uint64, Stats) {
		bases := make([]uint64, 3)
		for i := range bases {
			bases[i] = m.Alloc(1 << 16)
		}
		m.Phase(func(p *Proc) {
			for i := 0; i < 256; i++ {
				p.Load(bases[i%3] + uint64(i*8))
				p.Store(bases[(i+1)%3] + uint64(i*8))
			}
		})
		return bases, m.Stats()
	}
	m := New(DefaultConfig(2))
	wantBases, wantStats := kernel(m)
	m.Reset()
	gotBases, gotStats := kernel(m)
	for i := range wantBases {
		if gotBases[i] != wantBases[i] {
			t.Errorf("Alloc %d after Reset = %#x, want %#x", i, gotBases[i], wantBases[i])
		}
	}
	if gotStats != wantStats {
		t.Errorf("stats after Reset diverge:\n got %+v\nwant %+v", gotStats, wantStats)
	}
}

// TestShardMinProcs pins the SMP's one serial rule at eight host
// workers: a machine one processor short of shardMinProcs replays a
// phase on the calling goroutine, in processor order, and a machine of
// shardMinProcs processors shards it. Either way its Stats equal one
// worker's bit for bit.
func TestShardMinProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	if small := shardMinProcs - 1; small > 0 {
		m := New(DefaultConfig(small))
		m.SetHostWorkers(8)
		var seen []int // unsynchronized on purpose: -race catches a shard
		m.Phase(func(p *Proc) { seen = append(seen, p.ID()) })
		if len(seen) != small {
			t.Fatalf("%d processors replayed as %v", small, seen)
		}
		for i, id := range seen {
			if id != i {
				t.Fatalf("%d processors replayed out of order: %v", small, seen)
			}
		}
	}

	// Sharded, processor 0 can wait for processor 1, which another
	// worker replays. Serially, it would wait forever.
	m := New(DefaultConfig(shardMinProcs))
	m.SetHostWorkers(8)
	proc1 := make(chan struct{})
	m.Phase(func(p *Proc) {
		switch p.ID() {
		case 0:
			select {
			case <-proc1:
			case <-time.After(10 * time.Second):
				t.Errorf("a phase on shardMinProcs = %d processors did not shard", shardMinProcs)
			}
		case 1:
			close(proc1)
		}
	})

	for _, procs := range []int{shardMinProcs - 1, shardMinProcs, 8} {
		if procs < 1 {
			continue
		}
		run := func(workers int) Stats {
			m := New(DefaultConfig(procs))
			m.SetHostWorkers(workers)
			base := m.Alloc(1 << 20)
			m.Phase(func(p *Proc) {
				for i := 0; i < 1024; i++ {
					p.Load(base + uint64(p.ID())<<17 + uint64(i*8))
				}
				p.Compute(100)
			})
			return m.Stats()
		}
		if got, want := run(8), run(1); got != want {
			t.Errorf("%d processors: stats at 8 workers diverge:\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	m := New(DefaultConfig(1))
	m.Phase(func(p *Proc) { p.Compute(400e6 - int(m.Config().PhaseCy)) })
	if s := m.Seconds(); math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("Seconds() = %v, want 1.0", s)
	}
}

func TestStatsCounting(t *testing.T) {
	m := New(DefaultConfig(2))
	base := m.Alloc(1 << 20)
	m.Phase(func(p *Proc) {
		p.Load(base + uint64(p.ID())*(1<<18))
		p.Store(base + uint64(p.ID())*(1<<18) + 8)
		p.Compute(5)
	})
	s := m.Stats()
	if s.Loads != 2 || s.Stores != 2 || s.Computes != 10 || s.Phases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Alloc did not panic")
		}
	}()
	New(DefaultConfig(1)).Alloc(-1)
}

func BenchmarkCacheAccess(b *testing.B) {
	m := New(DefaultConfig(1))
	base := m.Alloc(64 << 20)
	r := rng.New(1)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = base + uint64(r.Intn(8<<20))*8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Phase(func(p *Proc) {
			for _, a := range addrs {
				p.Load(a)
			}
		})
	}
}

func TestAssociativityEliminatesConflicts(t *testing.T) {
	// Two lines one cache-size apart thrash a direct-mapped L1 but
	// coexist in a 2-way set.
	cfg := DefaultConfig(1)
	cfg.L1Assoc = 2
	m := New(cfg)
	a := m.Alloc(cfg.L1Bytes * 2)
	b := a + uint64(cfg.L1Bytes)/2 // same set in a 2-way half-depth index
	m.Phase(func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Load(a)
			p.Load(b)
		}
	})
	s := m.Stats()
	if s.L1Hits != 98 {
		t.Fatalf("2-way cache: L1 hits = %d, want 98", s.L1Hits)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Three lines mapping to one 2-way set: round-robin access misses
	// every time (LRU evicts the one needed next), which is the classic
	// LRU worst case — but re-touching the MRU line must hit.
	cfg := DefaultConfig(1)
	cfg.L1Assoc = 2
	m := New(cfg)
	setStride := uint64(cfg.L1Bytes / cfg.L1Assoc)
	base := m.Alloc(cfg.L1Bytes * 4)
	a, b, c := base, base+setStride, base+2*setStride
	m.Phase(func(p *Proc) {
		p.Load(a) // miss
		p.Load(b) // miss
		p.Load(b) // hit (MRU)
		p.Load(c) // miss, evicts a (LRU)
		p.Load(b) // hit
		p.Load(a) // miss (was evicted)
	})
	s := m.Stats()
	if s.L1Hits != 2 {
		t.Fatalf("LRU: L1 hits = %d, want 2", s.L1Hits)
	}
}

func TestAssociativityConfigValidation(t *testing.T) {
	bad := DefaultConfig(1)
	bad.L1Assoc = 0
	if bad.validate() == nil {
		t.Fatal("assoc 0 accepted")
	}
	bad = DefaultConfig(1)
	bad.L1Assoc = 3 // 16KB / (32*3) is not integral
	if bad.validate() == nil {
		t.Fatal("non-dividing associativity accepted")
	}
	good := DefaultConfig(1)
	good.L2Assoc = 4
	if err := good.validate(); err != nil {
		t.Fatalf("4-way L2 rejected: %v", err)
	}
}

func TestFullyAssociativeSmallCache(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1Bytes = 128
	cfg.L1Line = 32
	cfg.L1Assoc = 4 // one set, fully associative
	m := New(cfg)
	base := m.Alloc(1 << 12)
	m.Phase(func(p *Proc) {
		for rep := 0; rep < 3; rep++ {
			for i := 0; i < 4; i++ {
				p.Load(base + uint64(i*512)) // 4 distinct lines, any index
			}
		}
	})
	s := m.Stats()
	if s.L1Hits != 8 {
		t.Fatalf("fully associative: hits = %d, want 8 (4 cold misses)", s.L1Hits)
	}
}

// TestTraceRecordsPhases: an attached sink receives one event per
// phase, barrier and sequential section, their cycles add up to the
// machine's, and the phase's memory attribution is its cold misses.
func TestTraceRecordsPhases(t *testing.T) {
	m := New(DefaultConfig(2))
	rec := &trace.Recorder{}
	m.SetSink(rec)
	base := m.Alloc(1 << 12)
	m.Phase(func(p *Proc) { p.Load(base) })
	m.Barrier()
	m.Sequential(func(p *Proc) { p.Compute(10) })
	ev := rec.Events
	if len(ev) != 3 {
		t.Fatalf("trace has %d events, want 3", len(ev))
	}
	if ev[0].Kind != "phase" || ev[1].Kind != "barrier" || ev[2].Kind != "sequential" {
		t.Fatalf("kinds wrong: %s, %s, %s", ev[0].Kind, ev[1].Kind, ev[2].Kind)
	}
	var sum float64
	for _, e := range ev {
		sum += e.Cycles
	}
	if math.Abs(sum-m.Cycles()) > 1e-6 {
		t.Fatalf("trace cycles %.0f != machine %.0f", sum, m.Cycles())
	}
	// One cold miss per processor.
	if got, want := ev[0].Attr[trace.CatMem], 2*m.Config().MemCy; got != want {
		t.Fatalf("phase mem attribution = %v, want %v (2 cold misses)", got, want)
	}
}

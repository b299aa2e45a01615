package mta

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// forceHostParallelism raises GOMAXPROCS for the duration of a test.
// Replay caps its worker count at GOMAXPROCS, so on a small CI machine
// the sharded paths these tests exist to exercise would otherwise
// silently collapse to serial replay.
func forceHostParallelism(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// chargeBody is a synthetic data-parallel region body that exercises
// every charge kind, including the FEB hot-word tally.
func chargeBody(out []int64) func(i int, t *Thread) {
	return func(i int, t *Thread) {
		t.Instr(3)
		t.Load(uint64(i))
		t.LoadDep(uint64(2*i + 1))
		t.Store(uint64(3 * i))
		if i%64 == 0 {
			t.FetchAdd(uint64(1 << 30))
			t.SyncLoad(uint64(1<<31) + uint64(i%4))
		}
		out[i] = int64(i) * 3
	}
}

// runCharged runs the same region sequence at a given worker count and
// returns the machine.
func runCharged(workers, n int, sched sim.Sched) *Machine {
	m := New(DefaultConfig(4))
	m.SetHostWorkers(workers)
	out := make([]int64, n)
	m.ParallelFor(n, sched, chargeBody(out))
	m.Barrier()
	m.ParallelFor(n, sched, chargeBody(out))
	return m
}

// TestHostWorkersInvariantExact checks that sharded replay of an
// exact-path region (n <= maxExact) produces bit-identical stats for
// worker counts 1, 2, and 8, under both schedules.
func TestHostWorkersInvariantExact(t *testing.T) {
	forceHostParallelism(t, 8)
	const n = 10 * shardChunk // well past shardMinN, still exact
	for _, sched := range []sim.Sched{sim.SchedDynamic, sim.SchedBlock} {
		want := runCharged(1, n, sched).Stats()
		for _, w := range []int{2, 8} {
			if got := runCharged(w, n, sched).Stats(); got != want {
				t.Errorf("sched=%v workers=%d stats diverge:\n got %+v\nwant %+v", sched, w, got, want)
			}
		}
	}
}

// TestOverlappedTimingMatchesSerial: with several host workers and no
// sink an exact region is scheduled in the background while the next
// one replays, and barriers queue behind it (see timeLater). The clock
// read between regions, the final Stats, the Stats of the tape recorded
// meanwhile, played back, and the events of a sink attached once the
// run is over must all equal the serial machine's bit for bit.
func TestOverlappedTimingMatchesSerial(t *testing.T) {
	forceHostParallelism(t, 8)
	const n = 10 * shardChunk
	type outcome struct {
		cycles []float64
		stats  Stats
		events []byte
		played Stats
	}
	// A barrier length that is no binary fraction makes the clock's bits
	// depend on the order barriers and regions commit in.
	cfg := DefaultConfig(4)
	cfg.BarrierCycles = 0.1
	run := func(workers int) outcome {
		var o outcome
		m := New(cfg)
		m.SetHostWorkers(workers)
		out := make([]int64, n)
		tape, err := m.RecordTape(func(m *Machine) error {
			m.ParallelFor(n, sim.SchedDynamic, chargeBody(out))
			m.Barrier()
			m.Barrier()
			m.ParallelFor(n, sim.SchedBlock, chargeBody(out))
			o.cycles = append(o.cycles, m.Cycles())
			m.ParallelFor(n, sim.SchedDynamic, chargeBody(out))
			m.Serial(func(t *Thread) { t.Instr(5); t.LoadDep(7) })
			for k := 1; k <= 16; k++ {
				m.ParallelFor(n-37*k, sim.SchedDynamic, chargeBody(out))
				m.Barrier()
				m.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Attaching a sink settles the last region and barrier first:
		// they emit nothing, and the region after them emits as usual.
		rec := &trace.Recorder{}
		m.SetSink(rec)
		m.ParallelFor(n, sim.SchedDynamic, chargeBody(out))
		o.cycles = append(o.cycles, m.Cycles())
		o.stats = m.Stats()
		o.events = trace.AppendEvents(nil, rec.Events)
		pm := New(cfg)
		if err := pm.Play(tape); err != nil {
			t.Fatal(err)
		}
		o.played = pm.Stats()
		return o
	}
	want := run(1)
	if len(want.events) == 0 {
		t.Fatal("the serial run emitted no events")
	}
	for _, w := range []int{2, 4} {
		got := run(w)
		switch {
		case !slices.Equal(got.cycles, want.cycles):
			t.Errorf("workers=%d: clock read between regions %v, serial %v", w, got.cycles, want.cycles)
		case got.stats != want.stats:
			t.Errorf("workers=%d: stats diverge:\n got %+v\nwant %+v", w, got.stats, want.stats)
		case !bytes.Equal(got.events, want.events):
			t.Errorf("workers=%d: event stream differs from the serial run's", w)
		case got.played != want.played:
			t.Errorf("workers=%d: played tape stats %+v, serial %+v", w, got.played, want.played)
		}
	}
}

// TestHostWorkersInvariantAggregate does the same for the closed-form
// aggregate path (n > maxExact), whose floating-point issue/crit totals
// must be summed in chunk order to stay worker-count-invariant.
func TestHostWorkersInvariantAggregate(t *testing.T) {
	forceHostParallelism(t, 8)
	run := func(workers int) Stats {
		m := New(DefaultConfig(4))
		m.maxExact = 4 * shardChunk // force the aggregate path cheaply
		m.SetHostWorkers(workers)
		n := 20 * shardChunk
		out := make([]int64, n)
		m.ParallelFor(n, sim.SchedDynamic, chargeBody(out))
		return m.Stats()
	}
	want := run(1)
	if want.Cycles <= 0 {
		t.Fatal("aggregate region charged no cycles")
	}
	for _, w := range []int{2, 8} {
		if got := run(w); got != want {
			t.Errorf("workers=%d aggregate stats diverge:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

// TestParallelForOrderedStaysSerial verifies the ordered variant visits
// iterations in exactly ascending order even when host workers are
// configured — it is the escape hatch for bodies that communicate
// through shared data, so it must never run concurrently.
func TestParallelForOrderedStaysSerial(t *testing.T) {
	forceHostParallelism(t, 8)
	m := New(DefaultConfig(2))
	m.SetHostWorkers(8)
	const n = 3 * shardMinN
	seen := make([]int, 0, n) // unsynchronized on purpose
	m.ParallelForOrdered(n, sim.SchedDynamic, func(i int, th *Thread) {
		th.Instr(1)
		seen = append(seen, i)
	})
	if len(seen) != n {
		t.Fatalf("ordered replay visited %d of %d iterations", len(seen), n)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("ordered replay out of order at %d: got %d", i, v)
		}
	}
	// And it must charge exactly what ParallelFor charges.
	m2 := New(DefaultConfig(2))
	m2.ParallelFor(n, sim.SchedDynamic, func(i int, th *Thread) { th.Instr(1) })
	m3 := New(DefaultConfig(2))
	m3.SetHostWorkers(8)
	m3.ParallelForOrdered(n, sim.SchedDynamic, func(i int, th *Thread) { th.Instr(1) })
	if m2.Stats() != m3.Stats() {
		t.Errorf("ordered stats diverge from ParallelFor:\n got %+v\nwant %+v", m3.Stats(), m2.Stats())
	}
}

// TestResetClearsRecording pins the Reset contract: a machine reused
// after RecordRegions must not keep recording (the recordMax threshold)
// nor keep the captured regions.
func TestResetClearsRecording(t *testing.T) {
	m := New(DefaultConfig(1))
	m.RecordRegions(100)
	m.ParallelFor(10, sim.SchedDynamic, func(i int, th *Thread) { th.Instr(1) })
	if len(m.Recorded()) != 1 {
		t.Fatalf("expected 1 recorded region, got %d", len(m.Recorded()))
	}
	m.Reset()
	if got := m.Recorded(); got != nil {
		t.Errorf("Reset kept %d recorded regions", len(got))
	}
	m.ParallelFor(10, sim.SchedDynamic, func(i int, th *Thread) { th.Instr(1) })
	if got := m.Recorded(); len(got) != 0 {
		t.Errorf("machine still recording after Reset: captured %d regions", len(got))
	}
}

// TestAutoHostWorkers pins auto mode (SetHostWorkers(0)): the worker
// count resolves to the host core count, regions below autoShardMinN
// stay on the serial path, larger ones shard — and simulated results
// match explicit-serial replay bit-for-bit either way.
func TestAutoHostWorkers(t *testing.T) {
	forceHostParallelism(t, 8)
	m := New(DefaultConfig(4))
	m.SetHostWorkers(0)
	if got := m.hostWorkers; got != runtime.NumCPU() {
		t.Fatalf("auto hostWorkers = %d, want NumCPU = %d", got, runtime.NumCPU())
	}

	// Below the auto cutoff the replay must not shard: an
	// unsynchronized append would race (and trip -race) if it did.
	small := autoShardMinN - 1
	seen := make([]int, 0, small)
	m.ParallelFor(small, sim.SchedDynamic, func(i int, th *Thread) {
		th.Instr(1)
		seen = append(seen, i)
	})
	if len(seen) != small {
		t.Fatalf("auto small region visited %d of %d iterations", len(seen), small)
	}

	// Either side of the cutoff, stats must equal serial replay.
	for _, n := range []int{autoShardMinN - 1, 2 * autoShardMinN} {
		runWith := func(workers int) Stats {
			mm := New(DefaultConfig(4))
			mm.SetHostWorkers(workers)
			out := make([]int64, n)
			mm.ParallelFor(n, sim.SchedDynamic, chargeBody(out))
			return mm.Stats()
		}
		want := runWith(1)
		mm := New(DefaultConfig(4))
		mm.SetHostWorkers(0)
		out := make([]int64, n)
		mm.ParallelFor(n, sim.SchedDynamic, chargeBody(out))
		if got := mm.Stats(); got != want {
			t.Errorf("n=%d auto stats diverge:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestWorkerPanicPropagates checks a panic in a sharded body reaches the
// caller, as it does on the serial path.
func TestWorkerPanicPropagates(t *testing.T) {
	forceHostParallelism(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	m := New(DefaultConfig(1))
	m.SetHostWorkers(4)
	m.ParallelFor(4*shardMinN, sim.SchedDynamic, func(i int, th *Thread) {
		if i == 3*shardMinN {
			panic("boom")
		}
		th.Instr(1)
	})
}

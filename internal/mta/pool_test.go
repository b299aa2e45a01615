package mta

import (
	"runtime"
	"testing"
	"time"

	"pargraph/internal/sim"
)

// poolN is past shardMinN so ParallelFor actually dispatches to the
// pool's helpers.
const poolN = 4 * shardMinN

func runPoolRegion(m *Machine) Stats {
	out := make([]int64, poolN)
	m.ParallelFor(poolN, sim.SchedDynamic, chargeBody(out))
	return m.Stats()
}

// waitGoroutinesBelow polls until the process goroutine count drops to
// at most limit, giving asynchronously exiting helpers time to die.
func waitGoroutinesBelow(limit int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestResetKeepsPoolWorkers pins the Reset/pool contract: Reset neither
// strands nor leaks the parked workers — the same helpers serve regions
// after Reset, so the goroutine count stays flat across many
// Reset-and-replay cycles.
func TestResetKeepsPoolWorkers(t *testing.T) {
	forceHostParallelism(t, 4)
	m := New(DefaultConfig(4))
	m.SetHostWorkers(4)
	want := runPoolRegion(m)
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		m.Reset()
		if got := runPoolRegion(m); got != want {
			t.Fatalf("cycle %d: stats diverge after Reset:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Errorf("goroutines grew from %d to %d over 20 Reset/replay cycles", base, now)
	}
}

// TestSetHostWorkersResizesPool checks SetHostWorkers between regions
// resizes the pool safely in both directions: results stay identical,
// shrinking releases helper goroutines, and dropping to 1 releases
// every helper.
func TestSetHostWorkersResizesPool(t *testing.T) {
	forceHostParallelism(t, 8)
	want := runPoolRegion(New(DefaultConfig(4)))

	m := New(DefaultConfig(4))
	m.SetHostWorkers(8)
	if got := runPoolRegion(m); got != want {
		t.Fatalf("workers=8: stats diverge:\n got %+v\nwant %+v", got, want)
	}
	high := runtime.NumGoroutine()

	m.Reset()
	m.SetHostWorkers(2)
	if got := runPoolRegion(m); got != want {
		t.Fatalf("after resize to 2: stats diverge:\n got %+v\nwant %+v", got, want)
	}
	if now := waitGoroutinesBelow(high - 5); now > high-5 {
		t.Errorf("resize 8→2 released no helpers: %d goroutines, had %d at workers=8", now, high)
	}

	// Growing again between regions must also be safe.
	m.Reset()
	m.SetHostWorkers(6)
	if got := runPoolRegion(m); got != want {
		t.Fatalf("after resize to 6: stats diverge:\n got %+v\nwant %+v", got, want)
	}

	// Dropping to serial drops the pool and all its helpers.
	after6 := runtime.NumGoroutine()
	m.Reset()
	m.SetHostWorkers(1)
	if now := waitGoroutinesBelow(after6 - 4); now > after6-4 {
		t.Errorf("SetHostWorkers(1) stranded helpers: %d goroutines, had %d at workers=6", now, after6)
	}
	if got := runPoolRegion(m); got != want {
		t.Fatalf("serial after pool release: stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestPoolDeterminismAcrossWorkerCounts drives the pooled dispatch at
// every worker count the benchmarks use and checks bit-identical Stats,
// on both the exact and the aggregate timing paths.
func TestPoolDeterminismAcrossWorkerCounts(t *testing.T) {
	forceHostParallelism(t, 8)
	for _, aggregate := range []bool{false, true} {
		run := func(w int) Stats {
			m := New(DefaultConfig(4))
			if aggregate {
				m.maxExact = 2 * shardChunk
			}
			m.SetHostWorkers(w)
			return runPoolRegion(m)
		}
		want := run(1)
		for _, w := range []int{2, 4, 8} {
			if got := run(w); got != want {
				t.Errorf("aggregate=%v workers=%d: stats diverge:\n got %+v\nwant %+v", aggregate, w, got, want)
			}
		}
	}
}

// TestPoolReusedAcrossRegions checks that replaying many sharded regions
// on one machine reuses the parked helpers instead of spawning per
// region — the pool's reason to exist.
func TestPoolReusedAcrossRegions(t *testing.T) {
	forceHostParallelism(t, 4)
	m := New(DefaultConfig(4))
	m.SetHostWorkers(4)
	out := make([]int64, poolN)
	m.ParallelFor(poolN, sim.SchedDynamic, chargeBody(out)) // creates the pool
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		m.ParallelFor(poolN, sim.SchedDynamic, chargeBody(out))
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Errorf("goroutines grew from %d to %d over 100 pooled regions", base, now)
	}
}

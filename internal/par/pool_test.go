package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunCoversWorkersExactlyOnce drives many regions through one
// pool and checks every worker index runs exactly once per region, for
// region widths at, below, and above the pool's size.
func TestPoolRunCoversWorkersExactlyOnce(t *testing.T) {
	p := NewPool(4)
	for region := 0; region < 50; region++ {
		for _, n := range []int{1, 2, 4, 7} {
			hits := make([]int32, n)
			p.Run(n, func(w int) {
				atomic.AddInt32(&hits[w], 1)
			})
			for w, h := range hits {
				if h != 1 {
					t.Fatalf("region %d n=%d: worker %d ran %d times", region, n, w, h)
				}
			}
		}
	}
}

// TestPoolReusesGoroutines checks the point of the pool: repeated Runs
// do not keep spawning goroutines.
func TestPoolReusesGoroutines(t *testing.T) {
	p := NewPool(8)
	p.Run(8, func(int) {}) // warm up
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p.Run(8, func(int) {})
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d over 200 pooled regions", before, after)
	}
}

// TestPoolPanicPropagation mirrors For's contract: a panic in any
// body — helper or caller-run worker 0 — reaches the Run caller after
// all workers finish.
func TestPoolPanicPropagation(t *testing.T) {
	p := NewPool(4)
	for _, victim := range []int{0, 2} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("panic in worker %d did not propagate", victim)
				}
				if !strings.Contains(r.(string), "boom") {
					t.Fatalf("unexpected panic payload: %v", r)
				}
			}()
			p.Run(4, func(w int) {
				if w == victim {
					panic("boom")
				}
			})
		}()
		// The pool must remain usable after a propagated panic.
		ok := false
		p.Run(2, func(w int) {
			if w == 0 {
				ok = true
			}
		})
		if !ok {
			t.Fatal("pool unusable after panic")
		}
	}
}

// TestPoolRejectsNestedRun pins the one-region-at-a-time contract:
// calling Run from inside a running body panics instead of deadlocking.
func TestPoolRejectsNestedRun(t *testing.T) {
	p := NewPool(2)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("nested Run did not panic")
		}
	}()
	p.Run(2, func(w int) {
		if w == 0 {
			p.Run(2, func(int) {})
		}
	})
}

// TestPoolResize grows and shrinks the helper set: SetWorkers must
// release the helpers beyond its count, and a wider Run parks them
// again.
func TestPoolResize(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	p := NewPool(8)
	p.Run(8, func(int) {})
	base := runtime.NumGoroutine()
	p.SetWorkers(2)
	// The six released helpers exit asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base-5 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base-5 {
		t.Errorf("released helpers did not exit: %d goroutines, had %d before SetWorkers(2)", now, base)
	}
	var hits atomic.Int32
	p.Run(4, func(int) { hits.Add(1) }) // growing past the set count still works
	if got := hits.Load(); got != 4 {
		t.Fatalf("Run(4) after SetWorkers(2) ran %d workers", got)
	}
}

// TestPoolWorkers pins the worker count: n < 1 means 1, and the count
// is capped at GOMAXPROCS whenever it is read.
func TestPoolWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	p := NewPool(0)
	for _, c := range []struct{ set, want int }{{0, 1}, {-3, 1}, {3, 3}, {16, 4}} {
		p.SetWorkers(c.set)
		if got := p.Workers(); got != c.want {
			t.Errorf("SetWorkers(%d): Workers() = %d, want %d", c.set, got, c.want)
		}
	}
	runtime.GOMAXPROCS(8)
	if got := p.Workers(); got != 8 {
		t.Errorf("SetWorkers(16) at GOMAXPROCS 8: Workers() = %d, want 8", got)
	}
}

// TestPoolRunSumsConcurrently checks helpers really run the body (not
// just worker 0) by partitioning a sum across workers.
func TestPoolRunSumsConcurrently(t *testing.T) {
	p := NewPool(4)
	const n = 1 << 16
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	var total atomic.Int64
	p.Run(4, func(w int) {
		lo, hi := w*n/4, (w+1)*n/4
		var s int64
		for i := lo; i < hi; i++ {
			s += data[i]
		}
		total.Add(s)
	})
	if want := int64(n) * (n - 1) / 2; total.Load() != want {
		t.Fatalf("pooled sum = %d, want %d", total.Load(), want)
	}
}

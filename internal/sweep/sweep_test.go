package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// forceParallelism raises GOMAXPROCS for the duration of a test; RunCtx
// caps jobs there, so on a small CI machine the concurrent paths these
// tests exercise would otherwise collapse to serial execution.
func forceParallelism(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestRunExecutesEveryCellOnce(t *testing.T) {
	forceParallelism(t, 8)
	const n = 100
	for _, jobs := range []int{1, 2, 8, 100} {
		var counts [n]atomic.Int32
		if err := RunCtx(context.Background(), n, jobs, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("jobs=%d: cell %d ran %d times", jobs, i, got)
			}
		}
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	forceParallelism(t, 8)
	bad := map[int]bool{7: true, 3: true, 42: true}
	for _, jobs := range []int{1, 2, 8} {
		err := RunCtx(context.Background(), 64, jobs, func(i int) error {
			if bad[i] {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("jobs=%d: got %v, want the lowest-index error (cell 3)", jobs, err)
		}
	}
}

// TestRunPanicConfinedToCell is the panic-isolation guarantee: one
// panicking cell reports a *PanicError for its own index while every
// other cell still runs to completion.
func TestRunPanicConfinedToCell(t *testing.T) {
	forceParallelism(t, 8)
	const n = 32
	for _, jobs := range []int{1, 2, 8} {
		var ran [n]atomic.Bool
		err := RunCtx(context.Background(), n, jobs, func(i int) error {
			ran[i].Store(true)
			if i == 5 {
				panic("boom in cell five")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: got %v, want *PanicError", jobs, err)
		}
		if pe.Cell != 5 || pe.Value != "boom in cell five" {
			t.Errorf("jobs=%d: PanicError = cell %d value %v", jobs, pe.Cell, pe.Value)
		}
		if !strings.Contains(err.Error(), "boom in cell five") {
			t.Errorf("jobs=%d: error text %q omits the panic value", jobs, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("jobs=%d: cell %d never ran after cell 5 panicked", jobs, i)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	forceParallelism(t, 8)
	const jobs = 3
	var cur, peak atomic.Int32
	var mu sync.Mutex
	if err := RunCtx(context.Background(), 50, jobs, func(i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("observed %d concurrent cells, bound is %d", p, jobs)
	}
}

func TestRunEdgeCases(t *testing.T) {
	if err := RunCtx(context.Background(), 0, 4, func(int) error { panic("no cells") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	ran := 0
	if err := RunCtx(context.Background(), 3, -1, func(i int) error { ran++; return nil }); err != nil || ran != 3 {
		t.Errorf("jobs<1: ran=%d err=%v, want serial fallback", ran, err)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	forceParallelism(t, 8)
	var c Cache
	var builds atomic.Int32
	err := RunCtx(context.Background(), 64, 8, func(i int) error {
		v, err := GetAs(&c, "shared", func() (int, error) {
			builds.Add(1)
			return 77, nil
		})
		if err != nil {
			return err
		}
		if v != 77 {
			return fmt.Errorf("cell %d: got %d", i, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("shared input built %d times, want 1", b)
	}
	if len(c.entries) != 1 {
		t.Errorf("cache holds %d keys, want 1", len(c.entries))
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	var c Cache
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		v, err := GetAs(&c, key, func() (string, error) { return key + "!", nil })
		if err != nil || v != key+"!" {
			t.Fatalf("key %s: %q, %v", key, v, err)
		}
	}
	if len(c.entries) != 5 {
		t.Errorf("cache holds %d keys, want 5", len(c.entries))
	}
}

// TestCacheBuildErrorShared pins that a failed build is shared: every
// waiter gets the same error and the build is not retried.
func TestCacheBuildErrorShared(t *testing.T) {
	var c Cache
	var builds int
	build := func() (int, error) {
		builds++
		return 0, errors.New("bad input")
	}
	for i := 0; i < 3; i++ {
		if _, err := GetAs(&c, "k", build); err == nil || err.Error() != "bad input" {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if builds != 1 {
		t.Errorf("failed build retried: ran %d times", builds)
	}
}

func TestCacheBuildPanicBecomesError(t *testing.T) {
	var c Cache
	_, err := GetAs(&c, "k", func() (int, error) { panic("generator bug") })
	if err == nil || !strings.Contains(err.Error(), "generator bug") {
		t.Fatalf("panicking build: err = %v", err)
	}
	// Waiters see the same error.
	if _, err2 := GetAs(&c, "k", func() (int, error) { return 1, nil }); err2 == nil ||
		err2.Error() != err.Error() {
		t.Errorf("second Get after panicked build: %v", err2)
	}
}

func TestParseShard(t *testing.T) {
	if sh, err := ParseShard(""); err != nil || sh.Active() {
		t.Errorf("ParseShard(\"\") = %v, %v; want inactive shard", sh, err)
	}
	good := map[string][2]int{
		"0/1": {0, 1}, "0/2": {0, 2}, "1/2": {1, 2}, "3/4": {3, 4}, "7/16": {7, 16},
	}
	for s, want := range good {
		sh, err := ParseShard(s)
		if err != nil || sh.Index != want[0] || sh.Count != want[1] {
			t.Errorf("ParseShard(%q) = %v, %v; want %d/%d", s, sh, err, want[0], want[1])
		}
	}
	bad := []string{"1", "/", "a/b", "1/0", "-1/2", "2/2", "3/2", "0/-4", "0/2/3", "0 / 2"}
	for _, s := range bad {
		if _, err := ParseShard(s); err == nil {
			t.Errorf("ParseShard(%q): accepted", s)
		}
	}
}

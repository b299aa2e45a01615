package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 100, 1001} {
			hits := make([]int32, n)
			For(n, p, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerIndices(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	For(100, 4, func(w, lo, hi int) {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) != 4 {
		t.Fatalf("saw workers %v, want 4 distinct", seen)
	}
}

func TestForNonPositiveP(t *testing.T) {
	ran := false
	For(3, 0, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 3 {
			t.Fatalf("fallback got w=%d lo=%d hi=%d", w, lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("body never ran")
	}
}

func TestForMoreWorkersThanWork(t *testing.T) {
	var count int32
	For(2, 16, func(w, lo, hi int) {
		atomic.AddInt32(&count, int32(hi-lo))
	})
	if count != 2 {
		t.Fatalf("covered %d items, want 2", count)
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in worker did not reach the caller")
		}
	}()
	For(10, 4, func(w, lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

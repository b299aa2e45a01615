package serve

import (
	"math/rand"
	"sort"
	"sync"
)

// reservoir is a bounded uniform sample of a latency stream (Vitter's
// algorithm R): the first cap observations are kept verbatim, then each
// later observation replaces a random slot with probability cap/seen.
// Quantiles read from it are exact until the cap is exceeded and an
// unbiased estimate after, at fixed memory — the right trade for
// /metrics, where the numbers inform humans, not artifacts (nothing
// determinism-sensitive hangs off this randomness).
type reservoir struct {
	mu   sync.Mutex
	rng  *rand.Rand
	vals []float64
	cap  int
	seen int64
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

// add folds one observation into the sample.
func (r *reservoir) add(v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.vals[j] = v
	}
}

// quantiles returns the sample's value at each requested rank (e.g.
// 0.5, 0.95, 0.99) using nearest-rank on the sorted sample, plus the
// total observation count. With no observations the values are all 0.
func (r *reservoir) quantiles(qs []float64) ([]float64, int64) {
	r.mu.Lock()
	sorted := append([]float64(nil), r.vals...)
	seen := r.seen
	r.mu.Unlock()

	out := make([]float64, len(qs))
	if len(sorted) == 0 {
		return out, seen
	}
	sort.Float64s(sorted)
	for i, q := range qs {
		k := int(float64(q*float64(len(sorted)))+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(sorted) {
			k = len(sorted) - 1
		}
		out[i] = sorted[k]
	}
	return out, seen
}

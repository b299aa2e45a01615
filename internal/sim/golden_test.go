package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// tieRegions builds a fixed set of regions whose in-flight items keep
// landing on equal virtual finish times: a few (Issue, Crit) shapes that
// share Crit but differ in Issue, so tied flights carry different
// demands, plus long runs of identical items that the dynamic schedule
// collapses into one heap entry.
func tieRegions() [][]Item {
	shapes := []Item{
		{Issue: 4, Crit: 104},
		{Issue: 2, Crit: 104},
		{Issue: 6, Crit: 104},
		{Issue: 3, Crit: 52},
		{Issue: 1, Crit: 52},
		{Issue: 5, Crit: 5},
		{Issue: 7, Crit: 3}, // Crit < Issue: clamped to the issue bound
	}
	r := rand.New(rand.NewSource(18))
	var regions [][]Item
	for _, n := range []int{1, 5, 64, 333, 2048} {
		mixed := make([]Item, n)
		for i := range mixed {
			mixed[i] = shapes[r.Intn(len(shapes))]
		}
		regions = append(regions, mixed)

		// Runs of identical items: the heap carries groups with counts.
		runs := make([]Item, 0, n)
		for len(runs) < n {
			it := shapes[r.Intn(len(shapes))]
			for k := r.Intn(40) + 1; k > 0 && len(runs) < n; k-- {
				runs = append(runs, it)
			}
		}
		regions = append(regions, runs)

		// Alternating equal-Crit shapes: every pop has a tied partner
		// with a different demand.
		alt := make([]Item, n)
		for i := range alt {
			alt[i] = shapes[i%3]
		}
		regions = append(regions, alt)
	}
	return regions
}

// TestRegionGoldenBits pins every bit the region scheduler produces on
// tie-heavy regions: Cycles, Issued and every timeline bucket, for both
// schedules, 1/3/8 processors, 1/7/100 streams, with and without a
// timeline. The pop order among flights with equal finish times fixes
// the order of the floating-point demand updates, so a scheduler change
// that reorders ties moves this hash even when every cycle count stays
// within rounding of the old one.
func TestRegionGoldenBits(t *testing.T) {
	const want = uint64(0xd376ae96ef72248f)
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, items := range tieRegions() {
		for _, sched := range []Sched{SchedDynamic, SchedBlock} {
			for _, procs := range []int{1, 3, 8} {
				for _, streams := range []int{1, 7, 100} {
					res := RunRegion(procs, streams, items, sched)
					put(res.Cycles)
					put(res.Issued)
					put(float64(res.Items))

					tl := &IssueTimeline{Interval: 37}
					tres := RunRegionTimeline(procs, streams, items, sched, tl)
					if tres != res {
						t.Fatalf("timeline run %+v differs from plain run %+v", tres, res)
					}
					put(float64(len(tl.Used)))
					for _, u := range tl.Used {
						put(u)
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("region result bits hash to %#x, golden %#x: the scheduler's results changed", got, want)
	}
}

// refHeap is the classic swap-based binary min-heap over whole flights:
// the oracle the differential test compares pop order against.
type refHeap []flight

func (h *refHeap) push(f flight) {
	*h = append(*h, f)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].finishV <= s[i].finishV {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *refHeap) pop() flight {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l].finishV < s[small].finishV {
			small = l
		}
		if r < len(s) && s[r].finishV < s[small].finishV {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// TestItemHeapMatchesSwapHeap drives the scheduler's heap and the
// swap-based oracle through identical random push/pop sequences with
// heavy key ties and requires the same flights to pop in the same
// order. Every flight carries a unique stream, so a reordering of tied
// keys is visible.
func TestItemHeapMatchesSwapHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		keys := 1 + r.Intn(6) // few distinct keys: most entries tie
		var got itemHeap
		var ref refHeap
		id := int32(0)
		for step := 0; step < 4000; step++ {
			if len(ref) == 0 || r.Intn(100) < 55 {
				f := flight{finishV: float64(r.Intn(keys)) * 0.5, cargo: cargo{
					demand: float64(r.Intn(4)) / 8,
					count:  int32(1 + r.Intn(3)),
					stream: id,
				}}
				id++
				got.push(f)
				ref.push(f)
				continue
			}
			if got.len() != len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d flights, oracle %d", seed, step, got.len(), len(ref))
			}
			if g, w := got.minKey(), ref[0].finishV; g != w {
				t.Fatalf("seed %d step %d: min key %v, oracle %v", seed, step, g, w)
			}
			if g, w := got.pop(), ref.pop(); g != w {
				t.Fatalf("seed %d step %d: popped %+v, oracle %+v", seed, step, g, w)
			}
		}
		for len(ref) > 0 {
			if g, w := got.pop(), ref.pop(); g != w {
				t.Fatalf("seed %d drain: popped %+v, oracle %+v", seed, g, w)
			}
		}
		if got.len() != 0 {
			t.Fatalf("seed %d: heap holds %d flights after the oracle drained", seed, got.len())
		}
	}
}

package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func uniform(n int, issue, crit float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Issue: issue, Crit: crit}
	}
	return items
}

func TestSingleItemRunsAtCriticalPath(t *testing.T) {
	res := RunRegion(1, 1, []Item{{Issue: 4, Crit: 104}}, SchedDynamic)
	if res.Cycles != 104 {
		t.Fatalf("cycles = %v, want 104", res.Cycles)
	}
	if res.Issued != 4 {
		t.Fatalf("issued = %v, want 4", res.Issued)
	}
}

func TestUnsaturatedStreamsOverlapPerfectly(t *testing.T) {
	// 10 streams, each item demands 4/104 of the issue slot: total demand
	// 0.38 < 1, so ten items in parallel still finish in one critical path.
	res := RunRegion(1, 10, uniform(10, 4, 104), SchedDynamic)
	if res.Cycles != 104 {
		t.Fatalf("cycles = %v, want 104 (perfect overlap)", res.Cycles)
	}
	if got := res.Issued / res.Cycles; math.Abs(got-40.0/104.0) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", got, 40.0/104.0)
	}
}

func TestSaturatedProcessorIsIssueBound(t *testing.T) {
	// 128 streams × demand 4/104 ≈ 4.9: the processor saturates, so the
	// region time approaches total issue = 128*4 cycles.
	res := RunRegion(1, 128, uniform(128, 4, 104), SchedDynamic)
	want := 128.0 * 4.0
	if math.Abs(res.Cycles-want) > 1e-6 {
		t.Fatalf("cycles = %v, want %v (issue bound)", res.Cycles, want)
	}
	if u := res.Issued / res.Cycles; math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

func TestManyItemsFewStreams(t *testing.T) {
	// 1 stream executes 50 items back to back: time = 50 * crit.
	res := RunRegion(1, 1, uniform(50, 2, 100), SchedDynamic)
	if math.Abs(res.Cycles-5000) > 1e-6 {
		t.Fatalf("cycles = %v, want 5000", res.Cycles)
	}
}

func TestTwoProcessorsHalveSaturatedTime(t *testing.T) {
	items := uniform(2048, 4, 104)
	one := RunRegion(1, 128, items, SchedDynamic)
	two := RunRegion(2, 128, items, SchedDynamic)
	ratio := one.Cycles / two.Cycles
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("p=1/p=2 ratio = %v, want ~2 (got %v vs %v)", ratio, one.Cycles, two.Cycles)
	}
}

func TestDynamicBeatsBlockOnSkewedWork(t *testing.T) {
	// Half the items are 10x longer. Block scheduling gives some streams
	// all-long blocks; dynamic balances.
	var items []Item
	for i := 0; i < 64; i++ {
		items = append(items, Item{Issue: 3, Crit: 1000})
	}
	for i := 0; i < 64; i++ {
		items = append(items, Item{Issue: 3, Crit: 100})
	}
	dyn := RunRegion(1, 8, items, SchedDynamic)
	blk := RunRegion(1, 8, items, SchedBlock)
	if dyn.Cycles >= blk.Cycles {
		t.Fatalf("dynamic (%v) not faster than block (%v) on skewed work", dyn.Cycles, blk.Cycles)
	}
}

func TestIssuedEqualsTotalIssue(t *testing.T) {
	check := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%97) + 1
		items := make([]Item, n)
		total := 0.0
		for i := range items {
			iss := float64(i%7 + 1)
			items[i] = Item{Issue: iss, Crit: iss + float64((i*13)%211)}
			total += iss
		}
		res := RunRegion(2, 4, items, SchedDynamic)
		return math.Abs(res.Issued-total) < 1e-6*float64(n+1)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationNeverExceedsOne(t *testing.T) {
	check := func(seed int64, sat bool) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%301) + 1
		crit := 104.0
		if sat {
			crit = 4.0
		}
		res := RunRegion(2, 16, uniform(n, 4, crit), SchedDynamic)
		u := res.Issued / (res.Cycles * 2)
		return u >= 0 && u <= 1+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformFastPathMatchesExact(t *testing.T) {
	for _, n := range []int{1, 7, 128, 1000, 4096} {
		for _, sched := range []Sched{SchedDynamic, SchedBlock} {
			it := Item{Issue: 6, Crit: 106}
			exact := RunRegion(2, 32, uniform(n, it.Issue, it.Crit), sched)
			fast := RunUniformRegion(2, 32, n, it, sched)
			if rel := math.Abs(exact.Cycles-fast.Cycles) / exact.Cycles; rel > 0.15 {
				t.Errorf("n=%d sched=%v: exact %v vs fast %v (rel %.3f)", n, sched, exact.Cycles, fast.Cycles, rel)
			}
			if math.Abs(exact.Issued-fast.Issued) > 1e-6 {
				t.Errorf("n=%d: issued mismatch %v vs %v", n, exact.Issued, fast.Issued)
			}
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	res := RunRegion(1, 1, nil, SchedDynamic)
	if res.Cycles != 0 || res.Issued != 0 {
		t.Fatalf("empty region produced work: %+v", res)
	}
}

func TestRegionPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunRegion with 0 procs did not panic")
		}
	}()
	RunRegion(0, 1, uniform(1, 1, 1), SchedDynamic)
}

func TestCritClampedToIssue(t *testing.T) {
	// Crit < Issue is physically impossible; the model clamps.
	res := RunRegion(1, 1, []Item{{Issue: 10, Crit: 1}}, SchedDynamic)
	if res.Cycles < 10 {
		t.Fatalf("cycles = %v, want >= 10 (issue bound)", res.Cycles)
	}
}

func BenchmarkRunRegion100k(b *testing.B) {
	items := uniform(100000, 4, 104)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunRegion(8, 128, items, SchedDynamic)
	}
}

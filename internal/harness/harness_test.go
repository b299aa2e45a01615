package harness

import (
	"bytes"
	"strings"
	"testing"

	"pargraph/internal/list"
)

// testEnv is the Env most harness tests run under: cells in sequence,
// regions replayed serially, nothing cached, traced or sharded.
func testEnv() *Env { return &Env{} }

// must returns a sweep's result and panics on its error: no test
// interrupts these sweeps, so an error is a failed cell.
func must[T any](res T, err error) T {
	if err != nil {
		panic(err)
	}
	return res
}

func smallFig1(t *testing.T) *Fig1Result {
	t.Helper()
	p := DefaultFig1(Small)
	p.Sizes = []int{1 << 14, 1 << 17}
	res, err := testEnv().RunFig1(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallFig2(t *testing.T) *Fig2Result {
	t.Helper()
	p := DefaultFig2(Small)
	p.N = 1 << 11
	p.EdgeFactors = []int{4, 20}
	res, err := testEnv().RunFig2(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig1SeriesComplete(t *testing.T) {
	res := smallFig1(t)
	// 2 machines × 2 layouts × 4 processor counts.
	if len(res.Series) != 16 {
		t.Fatalf("got %d series, want 16", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s/%s/p=%d has %d points, want 2", s.Machine, s.Workload, s.Procs, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.Seconds <= 0 {
				t.Fatalf("series %s/%s/p=%d has non-positive time", s.Machine, s.Workload, s.Procs)
			}
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	res := smallFig1(t)
	const n = float64(1 << 17)

	// Shape 1: MTA is order-independent (within a few percent).
	mtaOrd, _ := find(res.Series, "MTA", "Ordered", 8)
	mtaRnd, _ := find(res.Series, "MTA", "Random", 8)
	yo, _ := mtaOrd.at(n)
	yr, _ := mtaRnd.at(n)
	if ratio := yr / yo; ratio < 0.85 || ratio > 1.2 {
		t.Errorf("MTA random/ordered = %.2f, want ~1", ratio)
	}

	// Shape 2: SMP is strongly order-sensitive.
	smpOrd, _ := find(res.Series, "SMP", "Ordered", 8)
	smpRnd, _ := find(res.Series, "SMP", "Random", 8)
	yo, _ = smpOrd.at(n)
	yr, _ = smpRnd.at(n)
	if ratio := yr / yo; ratio < 2 {
		t.Errorf("SMP random/ordered = %.2f, want >= 2", ratio)
	}

	// Shape 3: MTA beats SMP on random lists by a large factor.
	mr, _ := mtaRnd.at(n)
	sr, _ := smpRnd.at(n)
	if adv := sr / mr; adv < 5 {
		t.Errorf("SMP/MTA on random list = %.1fx, want >= 5x", adv)
	}

	// Shape 4: both machines scale with processors. At this small size
	// the SMP working set is L2-resident and per-processor cold misses
	// multiply with p, so its speedup is modest; the paper-regime
	// (out-of-cache) scaling is asserted in TestFig1ShapesLargeN.
	for _, machine := range []string{"MTA", "SMP"} {
		s1, _ := find(res.Series, machine, "Random", 1)
		s8, _ := find(res.Series, machine, "Random", 8)
		y1, _ := s1.at(n)
		y8, _ := s8.at(n)
		if speedup := y1 / y8; speedup < 2 {
			t.Errorf("%s p=8 speedup on random list = %.1f, want >= 2", machine, speedup)
		}
	}

	// Shape 5: times grow with problem size.
	for _, s := range res.Series {
		if s.Points[1].Seconds <= s.Points[0].Seconds {
			t.Errorf("series %s/%s/p=%d not monotone in n", s.Machine, s.Workload, s.Procs)
		}
	}
}

// TestFig1ShapesLargeN asserts the out-of-cache regime the paper
// measures: with the working set several times the L2, SMP scaling
// becomes miss-latency-bound and clean, and the MTA advantage on random
// lists is an order of magnitude or more.
func TestFig1ShapesLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n sweep skipped in -short mode")
	}
	p := DefaultFig1(Small)
	p.Sizes = []int{1 << 19}
	p.Procs = []int{1, 8}
	p.Layouts = []list.Layout{list.Random}
	res, err := testEnv().RunFig1(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = float64(1 << 19)
	s1, _ := find(res.Series, "SMP", "Random", 1)
	s8, _ := find(res.Series, "SMP", "Random", 8)
	y1, _ := s1.at(n)
	y8, _ := s8.at(n)
	if speedup := y1 / y8; speedup < 3 {
		t.Errorf("SMP p=8 out-of-cache speedup = %.1f, want >= 3", speedup)
	}
	m8, _ := find(res.Series, "MTA", "Random", 8)
	ym, _ := m8.at(n)
	if adv := y8 / ym; adv < 10 {
		t.Errorf("SMP/MTA random-list gap = %.1fx, want >= 10x", adv)
	}
}

func TestFig2Shapes(t *testing.T) {
	res := smallFig2(t)
	if len(res.Series) != 8 {
		t.Fatalf("got %d series, want 8", len(res.Series))
	}
	workload := res.Series[0].Workload
	xLo, xHi := float64(4*res.N), float64(20*res.N)

	// MTA faster than SMP at every processor count.
	for _, p := range []int{1, 2, 4, 8} {
		mtaS, ok1 := find(res.Series, "MTA", workload, p)
		smpS, ok2 := find(res.Series, "SMP", workload, p)
		if !ok1 || !ok2 {
			t.Fatalf("missing series at p=%d", p)
		}
		ym, _ := mtaS.at(xHi)
		ys, _ := smpS.at(xHi)
		if ym >= ys {
			t.Errorf("p=%d: MTA (%.4fs) not faster than SMP (%.4fs)", p, ym, ys)
		}
	}

	// Both scale with p and grow with m.
	for _, machine := range []string{"MTA", "SMP"} {
		s1, _ := find(res.Series, machine, workload, 1)
		s8, _ := find(res.Series, machine, workload, 8)
		y1, _ := s1.at(xHi)
		y8, _ := s8.at(xHi)
		if y1/y8 < 2.5 {
			t.Errorf("%s p=8 speedup = %.1f, want >= 2.5", machine, y1/y8)
		}
		lo, _ := s1.at(xLo)
		hi, _ := s1.at(xHi)
		if hi <= lo {
			t.Errorf("%s time not growing with m", machine)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	p := DefaultTable1(Small)
	p.ListN = 1 << 15
	p.GraphN = 1 << 11
	p.GraphM = 20 << 11
	res := must(testEnv().RunTable1(p))
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Utilization) != len(res.Procs) {
			t.Fatalf("row %q has %d entries", row.Workload, len(row.Utilization))
		}
		// High utilization at p=1, as in the paper (98-99%).
		if row.Utilization[0] < 0.85 {
			t.Errorf("%s: p=1 utilization %.2f, want >= 0.85", row.Workload, row.Utilization[0])
		}
		// Utilization does not increase with p (Table 1 trend).
		for i := 1; i < len(row.Utilization); i++ {
			if row.Utilization[i] > row.Utilization[0]+0.02 {
				t.Errorf("%s: utilization rises with p: %v", row.Workload, row.Utilization)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	f1 := smallFig1(t)
	f2 := smallFig2(t)
	sum, err := Summarize(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Ratios) != 5 {
		t.Fatalf("got %d ratios, want 5", len(sum.Ratios))
	}
	for _, r := range sum.Ratios {
		if r.Measured <= 0 {
			t.Errorf("%s: non-positive ratio", r.Name)
		}
	}
	var buf bytes.Buffer
	sum.WriteText(&buf)
	if !strings.Contains(buf.String(), "paper") {
		t.Error("summary text missing paper column")
	}
}

func TestSaturation(t *testing.T) {
	res := must(testEnv().RunSaturation([]int{1, 4}, []int{100, 1000, 10000}, 3))
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// Utilization should rise with n/p toward saturation.
	for p := 0; p < 2; p++ {
		rows := res.Rows[p*3 : p*3+3]
		if rows[2].Utilization < rows[0].Utilization {
			t.Errorf("p=%d: utilization not rising with work: %v", rows[0].Procs, rows)
		}
		if rows[2].Utilization < 0.8 {
			t.Errorf("p=%d: n/p=10000 should be near saturation, got %.2f", rows[0].Procs, rows[2].Utilization)
		}
	}
}

func TestAblScheduling(t *testing.T) {
	res := must(testEnv().RunAblScheduling(1<<15, 2, 7))
	if len(res.Rows) != 4 {
		t.Fatal("want 4 rows")
	}
	fineDyn, fineBlk := res.Rows[0].Seconds, res.Rows[1].Seconds
	coarseDyn, coarseBlk := res.Rows[2].Seconds, res.Rows[3].Seconds
	// Fine grain: the schedules tie (within a few percent) — block
	// balances by averaging over many walks per stream.
	if fineDyn/fineBlk > 1.1 || fineBlk/fineDyn > 1.1 {
		t.Errorf("fine-grain schedules should tie: dynamic %.6f vs block %.6f", fineDyn, fineBlk)
	}
	// Coarse grain: dynamic must win clearly.
	if coarseDyn >= coarseBlk {
		t.Errorf("coarse-grain dynamic (%.6f) not faster than block (%.6f)", coarseDyn, coarseBlk)
	}
}

func TestAblHashing(t *testing.T) {
	res := must(testEnv().RunAblHashing(1<<16, 8))
	on, off := res.Rows[0].Seconds, res.Rows[1].Seconds
	if off < 1.5*on {
		t.Errorf("hashing off (%.6f) should be much slower than on (%.6f)", off, on)
	}
}

func TestAblSublists(t *testing.T) {
	res := must(testEnv().RunAblSublists(1<<15, 4, []int{1, 8, 64}, 5))
	if len(res.Rows) != 3 {
		t.Fatal("want 3 rows")
	}
	// Too few sublists (s=p) should be slower than the paper's s=8p.
	if res.Rows[0].Seconds <= res.Rows[1].Seconds {
		t.Errorf("s=p (%.6f) should be slower than s=8p (%.6f)", res.Rows[0].Seconds, res.Rows[1].Seconds)
	}
}

func TestAblShortcut(t *testing.T) {
	res := must(testEnv().RunAblShortcut(1<<10, 8, 2, 9))
	full, star := res.Rows[0].Seconds, res.Rows[1].Seconds
	if full >= star {
		t.Errorf("Alg. 3 (%.6f) should beat the star-check form (%.6f)", full, star)
	}
}

func TestAblCache(t *testing.T) {
	// 2^17 nodes × 4 bytes × ~4 arrays ≈ 2 MB working set: tiny L2
	// suffers, a large L2 absorbs the random-list penalty.
	res := must(testEnv().RunAblCache(1<<17, 1, []int{1, 16}, 11))
	if len(res.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	if res.Rows[1].Seconds >= res.Rows[0].Seconds {
		t.Errorf("16MB L2 (%.6f) should beat 1MB (%.6f) on random lists", res.Rows[1].Seconds, res.Rows[0].Seconds)
	}
}

func TestWriteTextSmoke(t *testing.T) {
	var buf bytes.Buffer
	smallFig1(t).WriteText(&buf)
	smallFig2(t).WriteText(&buf)
	p := DefaultTable1(Small)
	p.ListN = 1 << 14
	p.GraphN = 1 << 10
	p.GraphM = 20 << 10
	must(testEnv().RunTable1(p)).WriteText(&buf)
	must(testEnv().RunSaturation([]int{1}, []int{1000}, 1)).WriteText(&buf)
	must(testEnv().RunAblScheduling(1<<12, 1, 1)).WriteText(&buf)
	for _, want := range []string{"Fig. 1", "Fig. 2", "Table 1", "saturation", "A1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"small": Small, "medium": Medium, "paper": Paper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestDefaultsAreSane(t *testing.T) {
	for _, sc := range []Scale{Small, Medium, Paper} {
		f1 := DefaultFig1(sc)
		if len(f1.Sizes) == 0 || len(f1.Procs) == 0 {
			t.Fatal("empty fig1 defaults")
		}
		f2 := DefaultFig2(sc)
		if f2.N == 0 || len(f2.EdgeFactors) == 0 {
			t.Fatal("empty fig2 defaults")
		}
		t1 := DefaultTable1(sc)
		if t1.ListN == 0 || t1.GraphN == 0 {
			t.Fatal("empty table1 defaults")
		}
	}
}

func TestFig1ListGenerationMatchesLayouts(t *testing.T) {
	// Guard against accidentally running both layouts on one list.
	p := DefaultFig1(Small)
	p.Sizes = []int{1 << 12}
	p.Layouts = []list.Layout{list.Ordered}
	res, err := testEnv().RunFig1(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Workload != "Ordered" {
			t.Fatalf("unexpected workload %q", s.Workload)
		}
	}
}

func TestAblAssociativity(t *testing.T) {
	res := must(testEnv().RunAblAssociativity(1<<16, 2, []int{1, 2, 4}, 13))
	if len(res.Rows) != 3 {
		t.Fatal("want 3 rows")
	}
	// Higher associativity never hurts on this workload.
	if res.Rows[2].Seconds > res.Rows[0].Seconds*1.02 {
		t.Errorf("4-way (%.6f) slower than direct-mapped (%.6f)", res.Rows[2].Seconds, res.Rows[0].Seconds)
	}
}

func TestStreamsSweep(t *testing.T) {
	res := must(testEnv().RunStreams(1<<16, 1, []int{1, 8, 40, 80, 128}, 3))
	if len(res.Rows) != 5 {
		t.Fatal("want 5 rows")
	}
	// Time must fall steeply as streams grow, then flatten: the paper's
	// latency-hiding curve.
	if res.Rows[0].Seconds < 5*res.Rows[2].Seconds {
		t.Errorf("1 stream (%.6f) should be much slower than 40 (%.6f)", res.Rows[0].Seconds, res.Rows[2].Seconds)
	}
	// Beyond ~40-80 streams returns diminish (within 30%).
	if res.Rows[4].Seconds < res.Rows[3].Seconds*0.7 {
		t.Errorf("128 streams (%.6f) should gain little over 80 (%.6f)", res.Rows[4].Seconds, res.Rows[3].Seconds)
	}
	// Utilization rises monotonically-ish with streams.
	if res.Rows[0].Utilization > res.Rows[2].Utilization {
		t.Error("utilization should rise with streams")
	}
}

func TestAblReduction(t *testing.T) {
	res := must(testEnv().RunAblReduction(1<<16, 8))
	hot, tree := res.Rows[0].Seconds, res.Rows[1].Seconds
	if hot < 1.5*tree {
		t.Errorf("counter hotspot (%.6f) should be well above software combine (%.6f)", hot, tree)
	}
}

func TestTreeEval(t *testing.T) {
	res, err := testEnv().RunTreeEval([]int{1 << 10, 1 << 12}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	for _, row := range res.Rows {
		if row.MTASeconds >= row.SMPSeconds {
			t.Errorf("%d leaves: MTA (%.6f) not faster than SMP (%.6f)", row.Leaves, row.MTASeconds, row.SMPSeconds)
		}
	}
}

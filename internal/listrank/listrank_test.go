package listrank

import (
	"testing"
	"testing/quick"

	"pargraph/internal/list"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

func mustRanks(t *testing.T, l *list.List, rank []int64, impl string) {
	t.Helper()
	if err := l.VerifyRanks(rank); err != nil {
		t.Fatalf("%s: %v", impl, err)
	}
}

func TestSequentialOrdered(t *testing.T) {
	l := list.New(100, list.Ordered, 0)
	mustRanks(t, l, Sequential(l), "sequential")
}

func TestSequentialRandom(t *testing.T) {
	l := list.New(1000, list.Random, 1)
	mustRanks(t, l, Sequential(l), "sequential")
}

func TestHelmanJajaAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 10000} {
		for _, p := range []int{1, 2, 8} {
			l := list.New(n, list.Random, uint64(n*p+1))
			mustRanks(t, l, HelmanJaja(l, p), "helman-jaja")
		}
	}
}

func TestHelmanJajaOrdered(t *testing.T) {
	l := list.New(5000, list.Ordered, 0)
	mustRanks(t, l, HelmanJaja(l, 4), "helman-jaja ordered")
}

func TestHelmanJajaProperty(t *testing.T) {
	check := func(seed uint64, sz uint16, pp, ss uint8) bool {
		n := int(sz)%3000 + 1
		p := int(pp)%8 + 1
		s := int(ss)%64 + 1
		l := list.New(n, list.Random, seed)
		return l.VerifyRanks(HelmanJajaS(l, p, s, seed^0xabc)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSublistHeadsDistinctAndIncludeHead(t *testing.T) {
	check := func(seed uint64, sz uint16, ss uint8) bool {
		n := int(sz)%500 + 1
		s := int(ss)%40 + 1
		l := list.New(n, list.Random, seed)
		heads := chooseSublistHeads(l, s, seed)
		if len(heads) == 0 || heads[0] != l.Head || len(heads) > s {
			return false
		}
		seen := map[int]bool{}
		for _, h := range heads {
			if h < 0 || h >= n || seen[h] {
				return false
			}
			seen[h] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRankMTACorrect(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 5000} {
		for _, layout := range []list.Layout{list.Ordered, list.Random} {
			l := list.New(n, layout, uint64(n))
			m := mta.New(mta.DefaultConfig(2))
			rank := RankMTA(l, m, n/DefaultNodesPerWalk, sim.SchedDynamic)
			mustRanks(t, l, rank, "mta kernel")
			if m.Cycles() <= 0 {
				t.Fatal("mta kernel advanced no cycles")
			}
		}
	}
}

func TestRankMTAProperty(t *testing.T) {
	check := func(seed uint64, sz uint16, ww uint8) bool {
		n := int(sz)%2000 + 1
		nwalk := int(ww)%100 + 1
		l := list.New(n, list.Random, seed)
		m := mta.New(mta.DefaultConfig(1))
		return l.VerifyRanks(RankMTA(l, m, nwalk, sim.SchedDynamic)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRankMTABlockSchedule(t *testing.T) {
	l := list.New(3000, list.Random, 3)
	m := mta.New(mta.DefaultConfig(1))
	mustRanks(t, l, RankMTA(l, m, 300, sim.SchedBlock), "mta block sched")
}

func TestRankSMPCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 5000} {
		for _, layout := range []list.Layout{list.Ordered, list.Random} {
			l := list.New(n, layout, uint64(n)+7)
			m := smp.New(smp.DefaultConfig(4))
			rank := RankSMP(l, m, 32, 99)
			mustRanks(t, l, rank, "smp kernel")
			if m.Cycles() <= 0 {
				t.Fatal("smp kernel advanced no cycles")
			}
		}
	}
}

func TestRankSMPProperty(t *testing.T) {
	check := func(seed uint64, sz uint16, pp uint8) bool {
		n := int(sz)%2000 + 1
		p := int(pp)%8 + 1
		l := list.New(n, list.Random, seed)
		m := smp.New(smp.DefaultConfig(p))
		return l.VerifyRanks(RankSMP(l, m, 8*p, seed^1)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllImplementationsAgree(t *testing.T) {
	l := list.New(4096, list.Random, 77)
	want := Sequential(l)
	impls := map[string][]int64{
		"hj":  HelmanJaja(l, 4),
		"mta": RankMTA(l, mta.New(mta.DefaultConfig(1)), 400, sim.SchedDynamic),
		"smp": RankSMP(l, smp.New(smp.DefaultConfig(2)), 16, 5),
	}
	for name, got := range impls {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s disagrees with sequential at node %d: %d vs %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestMTAOrderIndependence checks the paper's central MTA claim at the
// kernel level: ranking an ordered list and a random list of the same
// size costs nearly the same cycles (Fig. 1 left).
func TestMTAOrderIndependence(t *testing.T) {
	const n = 20000
	run := func(layout list.Layout) float64 {
		l := list.New(n, layout, 5)
		m := mta.New(mta.DefaultConfig(2))
		RankMTA(l, m, n/DefaultNodesPerWalk, sim.SchedDynamic)
		return m.Cycles()
	}
	ord, rnd := run(list.Ordered), run(list.Random)
	ratio := rnd / ord
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("MTA random/ordered ratio = %.2f, want ~1 (ordered %.0f, random %.0f)", ratio, ord, rnd)
	}
}

// TestSMPOrderSensitivity checks the paper's SMP claim: random lists rank
// several times slower than ordered lists (Fig. 1 right reports 3–4x).
func TestSMPOrderSensitivity(t *testing.T) {
	const n = 1 << 19
	run := func(layout list.Layout) float64 {
		l := list.New(n, layout, 6)
		m := smp.New(smp.DefaultConfig(4))
		RankSMP(l, m, 32, 9)
		return m.Cycles()
	}
	ord, rnd := run(list.Ordered), run(list.Random)
	ratio := rnd / ord
	if ratio < 2 || ratio > 12 {
		t.Fatalf("SMP random/ordered ratio = %.2f, want several-fold (ordered %.0f, random %.0f)", ratio, ord, rnd)
	}
}

// TestMTAUtilizationRecipe checks §3's operating point: ~10 nodes per
// walk with 100 streams per processor yields near-full utilization.
func TestMTAUtilizationRecipe(t *testing.T) {
	const n = 100000
	l := list.New(n, list.Random, 8)
	m := mta.New(mta.DefaultConfig(1))
	RankMTA(l, m, n/DefaultNodesPerWalk, sim.SchedDynamic)
	if u := m.Utilization(); u < 0.85 {
		t.Fatalf("utilization = %.3f, want >= 0.85 at the paper's operating point", u)
	}
}

func TestMTATooFewWalksStarves(t *testing.T) {
	const n = 100000
	l := list.New(n, list.Random, 8)
	m := mta.New(mta.DefaultConfig(1))
	RankMTA(l, m, 8, sim.SchedDynamic) // 8 walks cannot feed 100 streams
	if u := m.Utilization(); u > 0.5 {
		t.Fatalf("utilization = %.3f with 8 walks, want < 0.5", u)
	}
}

func BenchmarkSequentialRandom1M(b *testing.B) {
	l := list.New(1<<20, list.Random, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(l)
	}
}

func BenchmarkHelmanJajaRandom1M(b *testing.B) {
	l := list.New(1<<20, list.Random, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HelmanJaja(l, 8)
	}
}

// TestSMPLocalityOrdering: the three layouts must cost Ordered <
// Clustered < Random on the cache machine — locality is a dial, not a
// binary, which is the architectural point behind Fig. 1's two extremes.
func TestSMPLocalityOrdering(t *testing.T) {
	const n = 1 << 18
	cost := map[list.Layout]float64{}
	for _, layout := range []list.Layout{list.Ordered, list.Clustered, list.Random} {
		l := list.New(n, layout, 4)
		m := smp.New(smp.DefaultConfig(2))
		RankSMP(l, m, 16, 8)
		cost[layout] = m.Cycles()
	}
	if !(cost[list.Ordered] < cost[list.Clustered] && cost[list.Clustered] < cost[list.Random]) {
		t.Fatalf("locality ordering violated: ordered %.0f, clustered %.0f, random %.0f",
			cost[list.Ordered], cost[list.Clustered], cost[list.Random])
	}
}

// TestMTALocalityIndifference: the same three layouts cost the same on
// the MTA.
func TestMTALocalityIndifference(t *testing.T) {
	const n = 1 << 16
	var base float64
	for _, layout := range []list.Layout{list.Ordered, list.Clustered, list.Random} {
		l := list.New(n, layout, 4)
		m := mta.New(mta.DefaultConfig(2))
		RankMTA(l, m, n/DefaultNodesPerWalk, sim.SchedDynamic)
		if base == 0 {
			base = m.Cycles()
			continue
		}
		if r := m.Cycles() / base; r < 0.9 || r > 1.15 {
			t.Fatalf("%v deviates from baseline by %.2fx on the MTA", layout, r)
		}
	}
}

// TestRankMTACycleExactValidation records every parallel region of a
// real Alg. 1 run and replays each through the cycle-exact barrel
// engine: the fast model that produced Fig. 1 must agree region by
// region on the real workload.
func TestRankMTACycleExactValidation(t *testing.T) {
	const n = 20000
	l := list.New(n, list.Random, 3)
	cfg := mta.DefaultConfig(1)
	m := mta.New(cfg)
	m.RecordRegions(1 << 16)
	mustRanks(t, l, RankMTA(l, m, n/DefaultNodesPerWalk, sim.SchedDynamic), "recorded run")
	recs := m.Recorded()
	if len(recs) < 5 {
		t.Fatalf("recorded only %d regions", len(recs))
	}
	for i, rec := range recs {
		if rec.Cycles < 2000 {
			continue // tiny regions are noise-dominated either way
		}
		exact := mta.CycleSim(rec.Items, cfg.UseStreams, int64(cfg.MemLatency), cfg.Lookahead, 0.25)
		rel := (exact.Cycles - rec.Cycles) / exact.Cycles
		if rel > 0.15 || rel < -0.15 {
			t.Errorf("region %d (%d items): cycle-exact %.0f vs fast %.0f (%.1f%%)",
				i, len(rec.Items), exact.Cycles, rec.Cycles, rel*100)
		}
	}
}

// TestCyclicListPanics: a corrupted list (cycle) must fail loudly in
// every implementation rather than hang.
func TestCyclicListPanics(t *testing.T) {
	cyclic := func() *list.List {
		l := list.New(100, list.Ordered, 0)
		l.Succ[99] = 50 // close a loop
		return l
	}
	impls := map[string]func(l *list.List){
		"sequential": func(l *list.List) { Sequential(l) },
		"helmanjaja": func(l *list.List) { HelmanJaja(l, 2) },
		"mta":        func(l *list.List) { RankMTA(l, mta.New(mta.DefaultConfig(1)), 10, sim.SchedDynamic) },
		"smp":        func(l *list.List) { RankSMP(l, smp.New(smp.DefaultConfig(1)), 8, 1) },
		"prefix-mta": func(l *list.List) {
			PrefixMTA(l, make([]int64, 100), mta.New(mta.DefaultConfig(1)), 10, sim.SchedDynamic)
		},
		"prefix-smp": func(l *list.List) {
			PrefixSMP(l, make([]int64, 100), smp.New(smp.DefaultConfig(1)), 8, 1)
		},
		"helmanjaja-prefix": func(l *list.List) { HelmanJajaPrefix(l, make([]int64, 100), 2) },
	}
	for name, f := range impls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: cyclic list did not panic", name)
				}
			}()
			f(cyclic())
		}()
	}
}

package harness

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/treecon"
)

// statsBits renders a Stats struct so that two renderings are equal
// exactly when every field is bit-identical: %v prints a float64 in its
// shortest round-trip form, which names one bit pattern.
func statsBits(stats any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", stats)
	return h.Sum64()
}

// TestGoldenBits is the bit-exact twin of TestGoldenCycleCounts. That
// test allows half a cycle of drift, so it cannot see a change in the
// last bit of a cycle count; this one pins the full Stats of both
// machines — every float by its bits, every counter exactly — across
// the charge-path variants a faster implementation must keep: MTA banks
// by mask (p = 2) and by modulo (p = 3), both schedules, hashing off,
// and a region large enough for the aggregate (non-exact) path; SMP
// direct-mapped, 2-way (ablation A6), and a 3 MB L2 whose set count is
// not a power of two. Each list kernel (rank and prefix) and each MTA
// connected-components kernel (Alg. 3 and the Alg. 2 star check) has
// rows of its own, so a step the two kernels of a pair share cannot
// drift in one of them unseen. Speculative coloring and tree
// contraction have rows on both machines too.
func TestGoldenBits(t *testing.T) {
	l := list.New(10000, list.Random, 42)
	g := graph.RandomGnm(2000, 8000, 42)
	big := graph.RandomGnm(30000, 140000, 42) // SV's edge loops exceed the exact-region cap
	long := list.New(200000, list.Random, 42) // spills a 3 MB L2
	// aliased puts PrefixSMP's localA and subA 3 × 16 KB apart, and
	// rankAliased RankSMP's (their 4n-byte allocations plus the
	// allocator's stagger), so each node's two step-3 stores fall in one
	// direct-mapped L1 set and their order shows in the stats.
	aliased := list.New(9328, list.Random, 42)
	rankAliased := list.New(9920, list.Random, 42)
	// colorAliased puts ColorSMP's colorA and workA 16 KB apart (4n
	// bytes rounded to the 64-byte line, plus the allocator's stagger),
	// so the init phase's two stores per vertex fall in one
	// direct-mapped L1 set.
	colorAliased := graph.RandomGnm(1728, 6912, 42)
	expr := treecon.RandomExpr(4096, 42)
	// exprAliased (581 leaves, 1,161 nodes) puts EvalSMP's parentA and
	// linA entries for node i 9,408 + 12i bytes apart, within a line of
	// 16 KB at i = 580 and 581, the first nodes of processor 1's init
	// range: that phase's two stores per node fall in one direct-mapped
	// L1 set there, so their order shows in the stats.
	exprAliased := treecon.RandomExpr(581, 42)
	vals := make([]int64, l.Len())
	for i := range vals {
		vals[i] = int64(i%13) - 6
	}

	mtaCfg := func(procs int, hashed bool) mta.Config {
		c := mta.DefaultConfig(procs)
		c.HashMemory = hashed
		return c
	}
	smpCfg := func(assoc, l2Bytes int) smp.Config {
		c := smp.DefaultConfig(2)
		c.L1Assoc, c.L2Assoc, c.L2Bytes = assoc, assoc, l2Bytes
		return c
	}
	// strided charges every Thread entry point at a stride of Banks
	// words, so with hashing off the references pile onto one bank and
	// the bank floor binds; FEB operations on one word add a hotspot.
	strided := func(cfg mta.Config, sched sim.Sched) mta.Stats {
		m := mta.New(cfg)
		stride := uint64(cfg.Banks)
		m.ParallelFor(4096, sched, func(i int, t *mta.Thread) {
			a := uint64(i) * stride
			t.Load(a)
			t.Load2(a+stride, a+2*stride)
			t.LoadDep(a + 3*stride)
			t.LoadDep2(a+4*stride, a+5*stride)
			t.LoadN(a, 4)
			t.StoreN(2*a, 3)
			t.Store(a + 6*stride)
			t.FetchAdd(a + 7*stride)
			t.Instr(1)
			if i%64 == 0 {
				t.SyncLoad(7)
				t.SyncStore(7)
			}
		})
		m.Serial(func(t *mta.Thread) { t.LoadN(0, 9) })
		return m.Stats()
	}
	cases := []struct {
		name string
		run  func() any
		want uint64
	}{
		{"mta p=2 listrank dynamic", func() any {
			m := mta.New(mtaCfg(2, true))
			listrank.RankMTA(l, m, 1000, sim.SchedDynamic)
			return m.Stats()
		}, 0x188db76c39afacc0},
		{"mta p=2 listrank block", func() any {
			m := mta.New(mtaCfg(2, true))
			listrank.RankMTA(l, m, 1000, sim.SchedBlock)
			return m.Stats()
		}, 0xa44d4b53bd5b893a},
		{"mta p=3 listrank dynamic", func() any {
			m := mta.New(mtaCfg(3, true))
			listrank.RankMTA(l, m, 1000, sim.SchedDynamic)
			return m.Stats()
		}, 0x5f306a41b11c617e},
		{"mta p=3 listrank block", func() any {
			m := mta.New(mtaCfg(3, true))
			listrank.RankMTA(l, m, 1000, sim.SchedBlock)
			return m.Stats()
		}, 0x81fc1df8fb46567a},
		{"mta p=2 unhashed strided dynamic", func() any { return strided(mtaCfg(2, false), sim.SchedDynamic) }, 0xc7047bfe599d9fd5},
		{"mta p=3 unhashed strided block", func() any { return strided(mtaCfg(3, false), sim.SchedBlock) }, 0x4fc7552cad1ffc81},
		{"mta p=2 strided block", func() any { return strided(mtaCfg(2, true), sim.SchedBlock) }, 0x2be1b52f30e15c3c},
		{"mta p=3 strided dynamic", func() any { return strided(mtaCfg(3, true), sim.SchedDynamic) }, 0x852f56da7885bdb2},
		{"mta p=3 unhashed concomp block", func() any {
			m := mta.New(mtaCfg(3, false))
			concomp.LabelMTA(g, m, sim.SchedBlock)
			return m.Stats()
		}, 0x380d82656b7e48ad},
		{"mta p=2 concomp dynamic", func() any {
			m := mta.New(mtaCfg(2, true))
			concomp.LabelMTA(g, m, sim.SchedDynamic)
			return m.Stats()
		}, 0x556923b5ec445e1e},
		{"mta p=3 concomp dynamic", func() any {
			m := mta.New(mtaCfg(3, true))
			concomp.LabelMTA(g, m, sim.SchedDynamic)
			return m.Stats()
		}, 0x2d351d03e2339468},
		{"mta p=2 concomp aggregate regions", func() any {
			m := mta.New(mtaCfg(2, true))
			concomp.LabelMTA(big, m, sim.SchedDynamic)
			return m.Stats()
		}, 0x1c48e2d24567fd89},
		{"mta p=2 prefix dynamic", func() any {
			m := mta.New(mtaCfg(2, true))
			listrank.PrefixMTA(l, vals, m, 1000, sim.SchedDynamic)
			return m.Stats()
		}, 0xcd2ce7d555d2d71d},
		{"mta p=3 prefix block", func() any {
			m := mta.New(mtaCfg(3, true))
			listrank.PrefixMTA(l, vals, m, 1000, sim.SchedBlock)
			return m.Stats()
		}, 0x9d32ad0d53e5dace},
		{"mta p=2 star-check concomp dynamic", func() any {
			m := mta.New(mtaCfg(2, true))
			concomp.LabelMTAStarCheck(g, m, sim.SchedDynamic)
			return m.Stats()
		}, 0xe1d77b7c2b3242dc},
		{"mta p=3 unhashed star-check concomp block", func() any {
			m := mta.New(mtaCfg(3, false))
			concomp.LabelMTAStarCheck(g, m, sim.SchedBlock)
			return m.Stats()
		}, 0xf61b759586a8b3a5},
		{"mta p=2 coloring dynamic", func() any {
			m := mta.New(mtaCfg(2, true))
			coloring.ColorMTA(g, m, sim.SchedDynamic)
			return m.Stats()
		}, 0x1f22f53bb1fb0260},
		{"mta p=3 coloring block", func() any {
			m := mta.New(mtaCfg(3, true))
			coloring.ColorMTA(g, m, sim.SchedBlock)
			return m.Stats()
		}, 0x39eefa403ef66db8},
		{"mta p=2 treecon dynamic", func() any {
			m := mta.New(mtaCfg(2, true))
			treecon.EvalMTA(expr, m, sim.SchedDynamic)
			return m.Stats()
		}, 0xfbe4244471657912},
		{"mta p=3 unhashed treecon block", func() any {
			m := mta.New(mtaCfg(3, false))
			treecon.EvalMTA(expr, m, sim.SchedBlock)
			return m.Stats()
		}, 0x5bea7844d347f04},
		{"smp direct-mapped listrank", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			listrank.RankSMP(l, s, 16, 42)
			return s.Stats()
		}, 0x60b1b121b8fbcf38},
		{"smp direct-mapped concomp", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			concomp.LabelSMP(g, s)
			return s.Stats()
		}, 0x157d8539ac5e08c8},
		{"smp direct-mapped listrank aliased", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			listrank.RankSMP(rankAliased, s, 16, 42)
			return s.Stats()
		}, 0x16f1178b62e84a75},
		{"smp direct-mapped prefix", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			listrank.PrefixSMP(aliased, vals[:aliased.Len()], s, 16, 42)
			return s.Stats()
		}, 0x16923921ec6f404},
		{"smp 2-way prefix", func() any {
			s := smp.New(smpCfg(2, 4<<20))
			listrank.PrefixSMP(aliased, vals[:aliased.Len()], s, 16, 42)
			return s.Stats()
		}, 0x162c6547ced9eb36},
		{"smp 2-way listrank", func() any {
			s := smp.New(smpCfg(2, 4<<20))
			listrank.RankSMP(l, s, 16, 42)
			return s.Stats()
		}, 0xd7a15d83dd22bc16},
		{"smp 2-way concomp", func() any {
			s := smp.New(smpCfg(2, 4<<20))
			concomp.LabelSMP(g, s)
			return s.Stats()
		}, 0x5ccc1d9e983d513d},
		{"smp direct-mapped coloring", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			coloring.ColorSMP(g, s)
			return s.Stats()
		}, 0xab7b84225e3b811e},
		{"smp 2-way coloring", func() any {
			s := smp.New(smpCfg(2, 4<<20))
			coloring.ColorSMP(g, s)
			return s.Stats()
		}, 0xfba3c4e12aa61315},
		{"smp direct-mapped coloring aliased", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			coloring.ColorSMP(colorAliased, s)
			return s.Stats()
		}, 0x5202b1ca71a15d7e},
		{"smp direct-mapped treecon", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			treecon.EvalSMP(expr, s, 42)
			return s.Stats()
		}, 0x6b63c0002f8de98b},
		{"smp 2-way treecon", func() any {
			s := smp.New(smpCfg(2, 4<<20))
			treecon.EvalSMP(expr, s, 42)
			return s.Stats()
		}, 0xc79db5adf773235b},
		{"smp direct-mapped treecon aliased", func() any {
			s := smp.New(smpCfg(1, 4<<20))
			treecon.EvalSMP(exprAliased, s, 42)
			return s.Stats()
		}, 0xcac549b733b3bbe1},
		{"smp 3MB L2 listrank", func() any {
			s := smp.New(smpCfg(1, 3<<20))
			listrank.RankSMP(long, s, 16, 42)
			return s.Stats()
		}, 0x3d3dffc76939be5b},
		{"smp 3MB L2 concomp", func() any {
			s := smp.New(smpCfg(1, 3<<20))
			concomp.LabelSMP(big, s)
			return s.Stats()
		}, 0x31b8191b8a16930d},
	}
	for _, c := range cases {
		stats := c.run()
		if got := statsBits(stats); got != c.want {
			t.Errorf("%s: stats hash %#x, golden %#x — a simulated bit changed: %+v", c.name, got, c.want, stats)
		}
	}
}

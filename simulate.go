package pargraph

import (
	"fmt"

	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

// Machine selects which of the paper's two architectures to simulate.
type Machine int

const (
	// MTA is the Cray MTA-2 model: 220 MHz barrel processors with 128
	// hardware streams, no caches, hashed flat memory, full/empty-bit
	// synchronization.
	MTA Machine = iota
	// SMP is the Sun E4500 model: 400 MHz processors with direct-mapped
	// L1/L2 caches over a shared bus, software barriers.
	SMP
)

func (m Machine) String() string {
	if m == MTA {
		return "MTA"
	}
	return "SMP"
}

// SimResult reports one simulated kernel execution.
type SimResult struct {
	Seconds     float64 // simulated wall time at the machine's clock rate
	Cycles      float64 // simulated processor cycles
	Utilization float64 // issue-slot utilization (meaningful for MTA)
	Verified    bool    // output was cross-checked against a baseline
}

// SimulateListRank runs list ranking on the chosen simulated machine —
// the paper's Alg. 1 on the MTA, Helman–JáJá on the SMP — over an
// n-node list with the given layout and processor count, and verifies
// the ranks. This is one point of Fig. 1.
func SimulateListRank(machine Machine, n int, layout Layout, procs int, seed uint64) SimResult {
	l := list.New(n, layout.internal(), seed)
	var rank []int64
	res := SimResult{}
	switch machine {
	case MTA:
		m := mta.New(mta.DefaultConfig(procs))
		rank = listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
		res.Seconds, res.Cycles, res.Utilization = m.Seconds(), m.Cycles(), m.Utilization()
	case SMP:
		m := smp.New(smp.DefaultConfig(procs))
		rank = listrank.RankSMP(l, m, 8*procs, seed^0x51)
		res.Seconds, res.Cycles = m.Seconds(), m.Cycles()
	default:
		panic(fmt.Sprintf("pargraph: unknown machine %d", machine))
	}
	if err := l.VerifyRanks(rank); err != nil {
		panic(fmt.Sprintf("pargraph: simulated ranking is wrong: %v", err))
	}
	res.Verified = true
	return res
}

// SimulateComponents runs Shiloach–Vishkin connected components on the
// chosen simulated machine over graph g with the given processor count,
// verifying the labeling against union-find. This is one point of
// Fig. 2.
func SimulateComponents(machine Machine, g Graph, procs int) SimResult {
	ig := g.internal()
	var labels []int32
	res := SimResult{}
	switch machine {
	case MTA:
		m := mta.New(mta.DefaultConfig(procs))
		labels = concomp.LabelMTA(ig, m, sim.SchedDynamic)
		res.Seconds, res.Cycles, res.Utilization = m.Seconds(), m.Cycles(), m.Utilization()
	case SMP:
		m := smp.New(smp.DefaultConfig(procs))
		labels = concomp.LabelSMP(ig, m)
		res.Seconds, res.Cycles = m.Seconds(), m.Cycles()
	default:
		panic(fmt.Sprintf("pargraph: unknown machine %d", machine))
	}
	if !graph.SameComponents(labels, concomp.UnionFind(ig)) {
		panic("pargraph: simulated labeling is wrong")
	}
	res.Verified = true
	return res
}

// SimulateColoring runs speculative greedy coloring (the follow-up
// study's workload, E8) on the chosen simulated machine over graph g
// with the given processor count, verifying that the coloring is proper
// and bit-identical to the host speculative reference.
func SimulateColoring(machine Machine, g Graph, procs int) SimResult {
	ig := g.internal()
	var color []int32
	res := SimResult{}
	switch machine {
	case MTA:
		m := mta.New(mta.DefaultConfig(procs))
		color, _ = coloring.ColorMTA(ig, m, sim.SchedDynamic)
		res.Seconds, res.Cycles, res.Utilization = m.Seconds(), m.Cycles(), m.Utilization()
	case SMP:
		m := smp.New(smp.DefaultConfig(procs))
		color, _ = coloring.ColorSMP(ig, m)
		res.Seconds, res.Cycles = m.Seconds(), m.Cycles()
	default:
		panic(fmt.Sprintf("pargraph: unknown machine %d", machine))
	}
	if err := coloring.Validate(ig, color); err != nil {
		panic(fmt.Sprintf("pargraph: simulated coloring is wrong: %v", err))
	}
	want, _ := coloring.Speculative(ig)
	for i := range want {
		if color[i] != want[i] {
			panic(fmt.Sprintf("pargraph: simulated coloring diverges from the host reference at vertex %d", i))
		}
	}
	res.Verified = true
	return res
}

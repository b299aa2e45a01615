package harness

// Shape-regression tests: lock the headline ratios EXPERIMENTS.md
// reports (E1/E2/E4) so a model change that flips the paper's
// qualitative conclusions fails loudly. Bands are deliberately wide —
// they pin the *shape* (who wins, and whether layout matters), not the
// exact cycle counts, which golden_test.go already covers.

import (
	"testing"

	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

// shapeSeconds runs list ranking for one (machine, layout) cell at the
// regression size and returns simulated seconds.
func shapeSeconds(t *testing.T, machine string, lay list.Layout) float64 {
	t.Helper()
	const n = 1 << 17
	const procs = 8
	l := list.New(n, lay, 7)
	switch machine {
	case "mta":
		m := mta.New(mta.DefaultConfig(procs))
		rank := listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
		if err := l.VerifyRanks(rank); err != nil {
			t.Fatal(err)
		}
		return m.Seconds()
	default:
		m := smp.New(smp.DefaultConfig(procs))
		rank := listrank.RankSMP(l, m, 8*procs, 7)
		if err := l.VerifyRanks(rank); err != nil {
			t.Fatal(err)
		}
		return m.Seconds()
	}
}

func TestShapeHeadlineRatios(t *testing.T) {
	mtaOrd := shapeSeconds(t, "mta", list.Ordered)
	mtaRnd := shapeSeconds(t, "mta", list.Random)
	smpOrd := shapeSeconds(t, "smp", list.Ordered)
	smpRnd := shapeSeconds(t, "smp", list.Random)

	// §5 / E4: MTA performance is independent of list order (~1x).
	if r := mtaRnd / mtaOrd; r < 0.90 || r > 1.15 {
		t.Errorf("MTA random/ordered ratio = %.3f, want ~1 (0.90..1.15): layout must not matter on the MTA", r)
	}
	// §5 / E4: the SMP pays heavily for a cache-hostile layout (paper
	// reports 3–4x; our model measures 5x and up at this size).
	if r := smpRnd / smpOrd; r < 2 {
		t.Errorf("SMP random/ordered ratio = %.2f, want > 2: the SMP locality penalty disappeared", r)
	}
	// E1: the MTA wins list ranking on both layouts, decisively.
	if r := smpOrd / mtaOrd; r < 2 {
		t.Errorf("ordered lists: SMP/MTA = %.2f, want > 2: MTA should win", r)
	}
	if r := smpRnd / mtaRnd; r < 10 {
		t.Errorf("random lists: SMP/MTA = %.2f, want > 10: MTA should win big", r)
	}
}

func TestShapeConnectedComponents(t *testing.T) {
	const nv = 1 << 13
	const procs = 8
	g := graph.RandomGnm(nv, 8*nv, 7)
	want := concomp.UnionFind(g)

	mm := mta.New(mta.DefaultConfig(procs))
	got := concomp.LabelMTA(g, mm, sim.SchedDynamic)
	if !graph.SameComponents(want, got) {
		t.Fatal("LabelMTA: wrong components")
	}
	sm := smp.New(smp.DefaultConfig(procs))
	got = concomp.LabelSMP(g, sm)
	if !graph.SameComponents(want, got) {
		t.Fatal("LabelSMP: wrong components")
	}

	// E2: MTA beats the SMP on connected components (paper: 5–6x).
	if r := sm.Seconds() / mm.Seconds(); r < 2 {
		t.Errorf("connected components: SMP/MTA = %.2f, want > 2: MTA should win", r)
	}
}

package pargraph

import (
	"reflect"
	"testing"
	"testing/quick"

	"pargraph/internal/list"
	"pargraph/internal/treecon"
)

func TestRankListAgainstSequential(t *testing.T) {
	l := NewRandomList(10000, 3)
	want := RankListSequential(l.Succ, l.Head)
	got := RankList(l.Succ, l.Head, 4)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("rank mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if err := VerifyRanks(l.Succ, l.Head, got); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedListRanks(t *testing.T) {
	l := NewOrderedList(100)
	ranks := RankList(l.Succ, l.Head, 2)
	for i, r := range ranks {
		if r != int64(i) {
			t.Fatalf("ordered list rank[%d] = %d", i, r)
		}
	}
}

func TestVerifyRanksRejects(t *testing.T) {
	l := NewRandomList(50, 1)
	ranks := RankList(l.Succ, l.Head, 2)
	ranks[10]++
	if VerifyRanks(l.Succ, l.Head, ranks) == nil {
		t.Fatal("corrupt ranks accepted")
	}
}

func TestComponentsAgainstSequential(t *testing.T) {
	g := RandomGraph(2000, 3000, 5)
	if !SameComponents(Components(g, 4), ComponentsSequential(g)) {
		t.Fatal("parallel and sequential labelings disagree")
	}
}

func TestComponentsProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16) bool {
		n := int(nn)%500 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := RandomGraph(n, m, seed)
		return SameComponents(Components(g, 4), ComponentsSequential(g))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyBuilders(t *testing.T) {
	if g := MeshGraph(4, 5); g.N != 20 || CountComponents(Components(g, 2)) != 1 {
		t.Fatal("mesh malformed")
	}
	if g := Mesh3DGraph(2, 3, 4); g.N != 24 || CountComponents(Components(g, 2)) != 1 {
		t.Fatal("3-D mesh malformed")
	}
	if g := TorusGraph(4, 4); g.N != 16 || CountComponents(Components(g, 2)) != 1 {
		t.Fatal("torus malformed")
	}
}

func TestCountComponents(t *testing.T) {
	g := RandomGraph(100, 0, 1) // no edges: every vertex its own component
	if c := CountComponents(Components(g, 2)); c != 100 {
		t.Fatalf("got %d components, want 100", c)
	}
}

func TestSimulateListRankBothMachines(t *testing.T) {
	for _, machine := range []Machine{MTA, SMP} {
		for _, layout := range []Layout{Ordered, Random} {
			res := SimulateListRank(machine, 1<<14, layout, 4, 9)
			if !res.Verified || res.Seconds <= 0 || res.Cycles <= 0 {
				t.Fatalf("%v/%v: bad result %+v", machine, layout, res)
			}
		}
	}
}

func TestSimulateComponentsBothMachines(t *testing.T) {
	g := RandomGraph(1<<12, 4<<12, 2)
	for _, machine := range []Machine{MTA, SMP} {
		res := SimulateComponents(machine, g, 4)
		if !res.Verified || res.Seconds <= 0 {
			t.Fatalf("%v: bad result %+v", machine, res)
		}
	}
}

func TestSimulateColoringBothMachines(t *testing.T) {
	g := RandomGraph(1<<12, 4<<12, 3)
	for _, machine := range []Machine{MTA, SMP} {
		res := SimulateColoring(machine, g, 4)
		if !res.Verified || res.Seconds <= 0 || res.Cycles <= 0 {
			t.Fatalf("%v: bad result %+v", machine, res)
		}
	}
}

// TestPaperHeadline is the whole paper in one assertion: on a random
// list, the simulated MTA beats the simulated SMP by a large factor,
// and the MTA is insensitive to layout while the SMP is not.
func TestPaperHeadline(t *testing.T) {
	const n = 1 << 17
	mtaR := SimulateListRank(MTA, n, Random, 8, 1)
	mtaO := SimulateListRank(MTA, n, Ordered, 8, 1)
	smpR := SimulateListRank(SMP, n, Random, 8, 1)
	smpO := SimulateListRank(SMP, n, Ordered, 8, 1)

	if adv := smpR.Seconds / mtaR.Seconds; adv < 5 {
		t.Errorf("MTA advantage on random lists = %.1fx, want >= 5x", adv)
	}
	if gap := mtaR.Seconds / mtaO.Seconds; gap > 1.2 {
		t.Errorf("MTA layout sensitivity = %.2f, want ~1", gap)
	}
	if gap := smpR.Seconds / smpO.Seconds; gap < 2 {
		t.Errorf("SMP layout sensitivity = %.2f, want >= 2", gap)
	}
	if mtaR.Utilization < 0.85 {
		t.Errorf("MTA utilization = %.2f, want >= 0.85", mtaR.Utilization)
	}
}

func TestStringers(t *testing.T) {
	if MTA.String() != "MTA" || SMP.String() != "SMP" {
		t.Fatal("machine names wrong")
	}
	if Ordered.String() != "Ordered" || Random.String() != "Random" {
		t.Fatal("layout names wrong")
	}
}

func TestEvalExpressionMatchesSequential(t *testing.T) {
	e := RandomExpression(2000, 11)
	if EvalExpression(e, 4) != EvalExpressionSequential(e) {
		t.Fatal("evaluators disagree")
	}
}

func TestEvalExpressionTiny(t *testing.T) {
	// 2*(3+4) = 14 built by hand.
	e := Expression{
		Root:  0,
		Op:    []ExprOp{ExprMul, ExprLeaf, ExprAdd, ExprLeaf, ExprLeaf},
		Left:  []int32{1, -1, 3, -1, -1},
		Right: []int32{2, -1, 4, -1, -1},
		Val:   []int64{0, 2, 0, 3, 4},
	}
	if got := EvalExpression(e, 2); got != 14 {
		t.Fatalf("got %d, want 14", got)
	}
}

func TestScaleFreeGraphComponents(t *testing.T) {
	g := ScaleFreeGraph(12, 20000, 5)
	if g.N != 4096 || len(g.Edges) != 20000 {
		t.Fatalf("bad shape: n=%d m=%d", g.N, len(g.Edges))
	}
	if !SameComponents(Components(g, 4), ComponentsSequential(g)) {
		t.Fatal("labelings disagree on scale-free graph")
	}
}

func TestExportedConstantsMatchInternals(t *testing.T) {
	if ExprModulus != treecon.Mod {
		t.Fatalf("ExprModulus %d drifted from treecon.Mod %d", ExprModulus, treecon.Mod)
	}
	if NilNext != list.NilNext {
		t.Fatalf("NilNext %d drifted from list.NilNext %d", NilNext, list.NilNext)
	}
}

// TestProcsBelowOneMeansOne checks that every entry point taking procs
// treats procs < 1 as 1, the way par.For does, instead of dividing by
// zero in the list kernels' host walk: the answers for procs 0 and -1
// are the procs = 1 answers.
func TestProcsBelowOneMeansOne(t *testing.T) {
	l := NewRandomList(3000, 9)
	vals := make([]int64, len(l.Succ))
	for i := range vals {
		vals[i] = int64(i%7) - 3
	}
	var edges []Edge // a random tree: vertex v hangs under a smaller vertex
	for v := int32(1); v < 1000; v++ {
		edges = append(edges, Edge{U: v * 7919 % v, V: v})
	}
	e := RandomExpression(2000, 4)
	g := RandomGraph(500, 800, 6)
	run := func(procs int) []any {
		tree, err := RootTree(1000, edges, 0, procs)
		if err != nil {
			t.Fatalf("procs=%d: RootTree: %v", procs, err)
		}
		return []any{
			RankList(l.Succ, l.Head, procs),
			PrefixList(l.Succ, l.Head, vals, procs),
			*tree,
			EvalExpression(e, procs),
			Components(g, procs),
		}
	}
	want := run(1)
	for _, procs := range []int{0, -1} {
		for i, got := range run(procs) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("procs=%d: answer %d differs from the procs=1 answer", procs, i)
			}
		}
	}
}

package concomp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"

	"pargraph/internal/graph"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

// allImpls runs every implementation on g and returns named labelings.
func allImpls(g *graph.Graph, p int) map[string][]int32 {
	return map[string][]int32{
		"unionfind": UnionFind(g),
		"bfs":       BFS(g),
		"sv":        SV(g, p),
		"as":        AwerbuchShiloach(g, p),
		"randmate":  RandomMate(g, 42),
		"mta":       LabelMTA(g, mta.New(mta.DefaultConfig(1)), sim.SchedDynamic),
		"smp":       LabelSMP(g, smp.New(smp.DefaultConfig(2))),
	}
}

func assertAllAgree(t *testing.T, g *graph.Graph, p int) {
	t.Helper()
	impls := allImpls(g, p)
	ref := impls["unionfind"]
	for name, got := range impls {
		if !graph.SameComponents(ref, got) {
			t.Fatalf("%s produced a different partition (n=%d m=%d)", name, g.N, g.M())
		}
	}
}

func TestAllImplsOnFixedTopologies(t *testing.T) {
	cases := map[string]*graph.Graph{
		"singleton":      {N: 1},
		"two-isolated":   {N: 2},
		"one-edge":       {N: 2, Edges: []graph.Edge{{U: 0, V: 1}}},
		"self-loop":      {N: 3, Edges: []graph.Edge{{U: 1, V: 1}, {U: 0, V: 2}}},
		"chain":          graph.Chain(50),
		"star":           graph.Star(50),
		"mesh2d":         graph.Mesh2D(8, 9),
		"mesh3d":         graph.Mesh3D(4, 4, 4),
		"torus":          graph.Torus2D(6, 7),
		"empty-vertices": {N: 20},
		"complete":       graph.RandomGnm(12, 66, 1),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) { assertAllAgree(t, g, 4) })
	}
}

func TestAllImplsOnRandomGraphs(t *testing.T) {
	for _, m := range []int{0, 10, 100, 500, 2000} {
		g := graph.RandomGnm(500, m, uint64(m)+3)
		assertAllAgree(t, g, 4)
	}
}

func TestAllImplsOnKnownComponents(t *testing.T) {
	g, truth := graph.KnownComponents(9, 30, 11)
	for name, got := range allImpls(g, 4) {
		if !graph.SameComponents(truth, got) {
			t.Fatalf("%s disagrees with ground truth", name)
		}
	}
}

func TestSVProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16, pp uint8) bool {
		n := int(nn)%300 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		p := int(pp)%8 + 1
		g := graph.RandomGnm(n, m, seed)
		return graph.SameComponents(UnionFind(g), SV(g, p))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMTAKernelProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16) bool {
		n := int(nn)%200 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := graph.RandomGnm(n, m, seed)
		mach := mta.New(mta.DefaultConfig(2))
		return graph.SameComponents(UnionFind(g), LabelMTA(g, mach, sim.SchedDynamic))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSMPKernelProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16, pp uint8) bool {
		n := int(nn)%200 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		p := int(pp)%8 + 1
		g := graph.RandomGnm(n, m, seed)
		mach := smp.New(smp.DefaultConfig(p))
		return graph.SameComponents(UnionFind(g), LabelSMP(g, mach))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMateProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16) bool {
		n := int(nn)%300 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := graph.RandomGnm(n, m, seed)
		return graph.SameComponents(UnionFind(g), RandomMate(g, seed^0xff))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAwerbuchShiloachProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16, pp uint8) bool {
		n := int(nn)%300 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		p := int(pp)%8 + 1
		g := graph.RandomGnm(n, m, seed)
		return graph.SameComponents(UnionFind(g), AwerbuchShiloach(g, p))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsAreRepresentatives(t *testing.T) {
	// SV-family labels must be fixed points: d[d[i]] == d[i].
	g := graph.RandomGnm(400, 900, 5)
	for _, name := range []string{"sv", "as", "mta", "smp"} {
		d := allImpls(g, 4)[name]
		for i, l := range d {
			if d[l] != l {
				t.Fatalf("%s: label of %d is %d, which is not a root", name, i, l)
			}
		}
	}
}

func TestComponentCountMatches(t *testing.T) {
	g := graph.RandomGnm(1000, 600, 7) // sparse: many components
	want := graph.CountComponents(UnionFind(g))
	got := graph.CountComponents(SV(g, 4))
	if want != got {
		t.Fatalf("component counts differ: %d vs %d", want, got)
	}
	if want < 2 {
		t.Fatalf("test graph should be disconnected, got %d components", want)
	}
}

// TestMTAFasterThanSMP checks the Fig. 2 headline at kernel level: on a
// sparse random graph the MTA finishes in fewer simulated seconds than
// the SMP at equal processor count (the paper reports 5–6x).
func TestMTAFasterThanSMP(t *testing.T) {
	g := graph.RandomGnm(1<<14, 4<<14, 3)
	mtaM := mta.New(mta.DefaultConfig(4))
	LabelMTA(g, mtaM, sim.SchedDynamic)
	smpM := smp.New(smp.DefaultConfig(4))
	LabelSMP(g, smpM)
	ratio := smpM.Seconds() / mtaM.Seconds()
	if ratio < 2 {
		t.Fatalf("MTA/SMP advantage = %.2fx, want >= 2x (mta %.4fs, smp %.4fs)",
			ratio, mtaM.Seconds(), smpM.Seconds())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &graph.Graph{N: 0}
	for name, got := range allImpls(g, 2) {
		if len(got) != 0 {
			t.Fatalf("%s returned %d labels for empty graph", name, len(got))
		}
	}
}

func TestInvalidGraphPanics(t *testing.T) {
	g := &graph.Graph{N: 2, Edges: []graph.Edge{{U: 0, V: 9}}}
	funcs := map[string]func(){
		"unionfind": func() { UnionFind(g) },
		"sv":        func() { SV(g, 2) },
		"mta":       func() { LabelMTA(g, mta.New(mta.DefaultConfig(1)), sim.SchedDynamic) },
	}
	for name, f := range funcs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an invalid graph", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkUnionFind(b *testing.B) {
	g := graph.RandomGnm(1<<16, 1<<18, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionFind(g)
	}
}

func BenchmarkSV(b *testing.B) {
	g := graph.RandomGnm(1<<16, 1<<18, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SV(g, 8)
	}
}

func TestHybridProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16) bool {
		n := int(nn)%300 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := graph.RandomGnm(n, m, seed)
		return graph.SameComponents(UnionFind(g), Hybrid(g, seed^0xaa))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridOnFixedTopologies(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"chain":    graph.Chain(100),
		"star":     graph.Star(100),
		"mesh":     graph.Mesh2D(10, 10),
		"isolated": {N: 50},
	} {
		if !graph.SameComponents(UnionFind(g), Hybrid(g, 1)) {
			t.Errorf("%s: hybrid partition wrong", name)
		}
	}
}

func TestStarCheckKernelProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16) bool {
		n := int(nn)%150 + 2
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := graph.RandomGnm(n, m, seed)
		mach := mta.New(mta.DefaultConfig(2))
		return graph.SameComponents(UnionFind(g), LabelMTAStarCheck(g, mach, sim.SchedDynamic))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmsOnRMAT(t *testing.T) {
	// Scale-free hubs are the stress case for the grafting algorithms:
	// everything funnels through a few high-degree vertices.
	g := graph.RMAT(11, 8192, 5)
	want := UnionFind(g)
	if !graph.SameComponents(want, SV(g, 4)) {
		t.Error("SV wrong on R-MAT")
	}
	if !graph.SameComponents(want, Hybrid(g, 3)) {
		t.Error("Hybrid wrong on R-MAT")
	}
	if !graph.SameComponents(want, LabelMTA(g, mta.New(mta.DefaultConfig(4)), sim.SchedDynamic)) {
		t.Error("MTA kernel wrong on R-MAT")
	}
	if !graph.SameComponents(want, LabelSMP(g, smp.New(smp.DefaultConfig(4)))) {
		t.Error("SMP kernel wrong on R-MAT")
	}
}

// TestRandomMatingLabelsPinned pins the exact labels, not only the
// partition, of the two random-mating variants on a fixed graph and
// seed. Which root a component keeps depends on every coin drawn, so a
// coin drawn out of order or an extra one changes the hash.
func TestRandomMatingLabelsPinned(t *testing.T) {
	g := graph.RandomGnm(2000, 3000, 7)
	for _, c := range []struct {
		name  string
		label func(*graph.Graph, uint64) []int32
		want  uint64
	}{
		{"RandomMate", RandomMate, 0xeb592e7276cc5bff},
		{"Hybrid", Hybrid, 0xa0a49f17e7c315d7},
	} {
		h := fnv.New64a()
		for _, v := range c.label(g, 0x5eed) {
			binary.Write(h, binary.LittleEndian, v)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: labels hash %#x, pinned %#x", c.name, got, c.want)
		}
	}
}

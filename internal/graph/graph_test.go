package graph

import (
	"testing"
	"testing/quick"
)

// bfsLabels is the reference labeling used to sanity-check generators.
func bfsLabels(g *Graph) []int32 {
	csr := g.ToCSR()
	label := make([]int32, g.N)
	for i := range label {
		label[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, g.N)
	for s := 0; s < g.N; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range csr.Neighbors(int(v)) {
				if label[w] == -1 {
					label[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return label
}

func TestRandomGnmShape(t *testing.T) {
	g := RandomGnm(1000, 5000, 1)
	if g.N != 1000 || g.M() != 5000 {
		t.Fatalf("got n=%d m=%d", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[Edge]bool{}
	for _, e := range g.Edges {
		if e.U == e.V {
			t.Fatalf("self loop %v", e)
		}
		if e.U > e.V {
			t.Fatalf("edge not canonical: %v", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestRandomGnmDeterministic(t *testing.T) {
	a := RandomGnm(100, 300, 9)
	b := RandomGnm(100, 300, 9)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestRandomGnmDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("impossible edge count did not panic")
		}
	}()
	RandomGnm(4, 100, 1)
}

func TestRandomGnmComplete(t *testing.T) {
	// Exactly the maximum edge count must terminate and produce K_n.
	g := RandomGnm(30, 30*29/2, 2)
	if g.M() != 435 {
		t.Fatalf("K30 has %d edges, want 435", g.M())
	}
}

func TestCSRDegreesSumTo2M(t *testing.T) {
	g := RandomGnm(500, 2000, 3)
	csr := g.ToCSR()
	total := 0
	for v := 0; v < g.N; v++ {
		total += len(csr.Neighbors(v))
	}
	if total != 2*g.M() {
		t.Fatalf("degree sum = %d, want %d", total, 2*g.M())
	}
}

func TestCSRSymmetry(t *testing.T) {
	g := RandomGnm(200, 800, 4)
	csr := g.ToCSR()
	adj := map[[2]int32]int{}
	for v := 0; v < g.N; v++ {
		for _, w := range csr.Neighbors(v) {
			adj[[2]int32{int32(v), w}]++
		}
	}
	for k, c := range adj {
		if adj[[2]int32{k[1], k[0]}] != c {
			t.Fatalf("asymmetric adjacency at %v", k)
		}
	}
}

func TestMesh2DStructure(t *testing.T) {
	g := Mesh2D(3, 4)
	if g.N != 12 {
		t.Fatalf("n = %d, want 12", g.N)
	}
	// rows*(cols-1) + (rows-1)*cols edges
	want := 3*3 + 2*4
	if g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	if c := CountComponents(bfsLabels(g)); c != 1 {
		t.Fatalf("mesh has %d components, want 1", c)
	}
}

func TestMesh3DStructure(t *testing.T) {
	g := Mesh3D(2, 3, 4)
	if g.N != 24 {
		t.Fatalf("n = %d, want 24", g.N)
	}
	want := 1*3*4 + 2*2*4 + 2*3*3
	if g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	if c := CountComponents(bfsLabels(g)); c != 1 {
		t.Fatalf("3-D mesh has %d components, want 1", c)
	}
}

func TestTorus2DRegular(t *testing.T) {
	g := Torus2D(4, 5)
	csr := g.ToCSR()
	for v := 0; v < g.N; v++ {
		if len(csr.Neighbors(v)) != 4 {
			t.Fatalf("torus vertex %d has degree %d, want 4", v, len(csr.Neighbors(v)))
		}
	}
}

func TestTorus2DSmallNoDuplicates(t *testing.T) {
	// 2xN tori generate coincident wrap links; dedup must remove them.
	g := Torus2D(2, 2)
	seen := map[Edge]bool{}
	for _, e := range g.Edges {
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestChainAndStar(t *testing.T) {
	if g := Chain(10); g.M() != 9 || CountComponents(bfsLabels(g)) != 1 {
		t.Fatal("chain malformed")
	}
	g := Star(10)
	if g.M() != 9 {
		t.Fatal("star malformed")
	}
	csr := g.ToCSR()
	if len(csr.Neighbors(0)) != 9 || len(csr.Neighbors(5)) != 1 {
		t.Fatal("star degrees wrong")
	}
}

func TestKnownComponentsTruth(t *testing.T) {
	g, truth := KnownComponents(7, 40, 5)
	if g.N != 280 {
		t.Fatalf("n = %d", g.N)
	}
	got := bfsLabels(g)
	if !SameComponents(got, truth) {
		t.Fatal("ground-truth labels disagree with BFS")
	}
	if CountComponents(truth) != 7 {
		t.Fatalf("components = %d, want 7", CountComponents(truth))
	}
}

func TestKnownComponentsProperty(t *testing.T) {
	check := func(seed uint64, kk, ss uint8) bool {
		k := int(kk)%5 + 1
		sz := int(ss)%30 + 1
		g, truth := KnownComponents(k, sz, seed)
		return SameComponents(bfsLabels(g), truth)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSameComponents(t *testing.T) {
	if !SameComponents([]int32{0, 0, 1}, []int32{5, 5, 9}) {
		t.Fatal("relabeled partition rejected")
	}
	if SameComponents([]int32{0, 0, 1}, []int32{5, 6, 9}) {
		t.Fatal("split partition accepted")
	}
	if SameComponents([]int32{0, 1}, []int32{5, 5}) {
		t.Fatal("merged partition accepted")
	}
	if SameComponents([]int32{0}, []int32{0, 0}) {
		t.Fatal("length mismatch accepted")
	}
}

func TestValidateCatchesBadEdge(t *testing.T) {
	g := &Graph{N: 3, Edges: []Edge{{0, 5}}}
	if g.Validate() == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { RandomGnm(0, 0, 1) },
		func() { Mesh2D(0, 3) },
		func() { Mesh3D(1, 0, 1) },
		func() { Torus2D(-1, 2) },
		func() { Chain(0) },
		func() { Star(0) },
		func() { KnownComponents(0, 5, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func BenchmarkRandomGnm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RandomGnm(1<<16, 1<<18, uint64(i))
	}
}

func BenchmarkToCSR(b *testing.B) {
	g := RandomGnm(1<<16, 1<<18, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ToCSR()
	}
}

// Package graph provides the undirected-graph substrate for the
// connected-components experiments: edge-list and CSR representations,
// the paper's LEDA-style random-graph generator, the mesh topologies used
// by the prior studies the paper cites (Krishnamurthy et al.'s 2-D/3-D
// meshes), and generators with known component structure for testing.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"pargraph/internal/rng"
)

// Edge is one undirected edge between vertex indices U and V.
type Edge struct {
	U, V int32
}

// Graph is an undirected graph held as an edge list, the input format of
// Shiloach–Vishkin. Vertices are 0..N-1. Self-loops are permitted but
// the generators here never produce them; parallel edges never appear.
//
// The CSR view is memoized on first use (see ToCSR), so a Graph must not
// be copied by value and Edges must not change after the first ToCSR
// call. The generators in this package finish mutating before returning.
type Graph struct {
	N     int
	Edges []Edge

	csrOnce sync.Once
	csr     *CSR
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Validate checks that every endpoint is in range.
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("graph: edge %d = (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
	}
	return nil
}

// CSR is a compressed-sparse-row adjacency view. Each undirected edge
// appears twice, once per direction.
type CSR struct {
	N      int
	RowPtr []int32 // length N+1
	Col    []int32 // length 2M
}

// ToCSR returns the adjacency view, building it with a counting sort
// over endpoints on first call and returning the same *CSR afterwards.
// The memoization is concurrency-safe, so scheduled experiment cells
// sharing one cached Graph (internal/sweep) build its CSR exactly once;
// kernels that call ToCSR repeatedly (coloring calls it per phase) pay
// for one build. Callers must treat the result as read-only.
func (g *Graph) ToCSR() *CSR {
	g.csrOnce.Do(func() { g.csr = g.buildCSR() })
	return g.csr
}

func (g *Graph) buildCSR() *CSR {
	n := g.N
	deg := make([]int32, n+1)
	for _, e := range g.Edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	row := append([]int32(nil), deg...)
	col := make([]int32, 2*len(g.Edges))
	fill := append([]int32(nil), deg[:n]...)
	for _, e := range g.Edges {
		col[fill[e.U]] = e.V
		fill[e.U]++
		col[fill[e.V]] = e.U
		fill[e.V]++
	}
	return &CSR{N: n, RowPtr: row, Col: col}
}

// Neighbors returns the adjacency slice of v. The caller must not modify it.
func (c *CSR) Neighbors(v int) []int32 { return c.Col[c.RowPtr[v]:c.RowPtr[v+1]] }

// RandomGnm generates a random graph with n vertices and m distinct
// edges by repeatedly adding a uniformly random non-loop edge that is not
// yet present — the construction the paper attributes to LEDA (§5). It
// panics if m exceeds the number of possible edges.
func RandomGnm(n, m int, seed uint64) *Graph {
	if n <= 0 {
		panic("graph: RandomGnm needs at least one vertex")
	}
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic(fmt.Sprintf("graph: RandomGnm(%d,%d): at most %d edges possible", n, m, maxM))
	}
	r := rng.New(seed)
	seen := newEdgeSet(m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen.add(uint64(u)<<32 | uint64(v)) {
			continue
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	return &Graph{N: n, Edges: edges}
}

// edgeSet is an open-addressing (linear probing) set of edge keys
// u<<32|v with u < v. Such a key is never 0, because v >= 1, so 0 marks
// an empty slot. It holds what a map[uint64]struct{} would in a flat
// array of under three slots per edge, with no per-entry overhead.
type edgeSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): a probe starts at the hash's top bits
}

// newEdgeSet returns a set sized to stay at most two thirds full with m
// keys.
func newEdgeSet(m int) edgeSet {
	size, bits := 2, uint(1)
	for size < m+m/2 {
		size, bits = 2*size, bits+1
	}
	return edgeSet{slots: make([]uint64, size), shift: 64 - bits}
}

// add inserts k and reports whether it was absent.
func (s *edgeSet) add(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// Mesh2D generates the rows×cols grid graph with 4-neighbor connectivity,
// the regular topology on which Krishnamurthy et al. reported speedups.
func Mesh2D(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: Mesh2D needs positive dimensions")
	}
	g := &Graph{N: rows * cols}
	at := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.Edges = append(g.Edges, Edge{at(r, c), at(r, c+1)})
			}
			if r+1 < rows {
				g.Edges = append(g.Edges, Edge{at(r, c), at(r+1, c)})
			}
		}
	}
	return g
}

// Mesh3D generates the x×y×z grid graph with 6-neighbor connectivity.
func Mesh3D(x, y, z int) *Graph {
	if x <= 0 || y <= 0 || z <= 0 {
		panic("graph: Mesh3D needs positive dimensions")
	}
	g := &Graph{N: x * y * z}
	at := func(i, j, k int) int32 { return int32((i*y+j)*z + k) }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if i+1 < x {
					g.Edges = append(g.Edges, Edge{at(i, j, k), at(i+1, j, k)})
				}
				if j+1 < y {
					g.Edges = append(g.Edges, Edge{at(i, j, k), at(i, j+1, k)})
				}
				if k+1 < z {
					g.Edges = append(g.Edges, Edge{at(i, j, k), at(i, j, k+1)})
				}
			}
		}
	}
	return g
}

// Torus2D is Mesh2D with wraparound links, matching the paper's mention
// of torus interconnect topologies.
func Torus2D(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: Torus2D needs positive dimensions")
	}
	g := &Graph{N: rows * cols}
	at := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				g.Edges = append(g.Edges, Edge{at(r, c), at(r, (c+1)%cols)})
			}
			if rows > 1 {
				g.Edges = append(g.Edges, Edge{at(r, c), at((r+1)%rows, c)})
			}
		}
	}
	return dedup(g)
}

// Chain returns the path graph on n vertices.
func Chain(n int) *Graph {
	if n <= 0 {
		panic("graph: Chain needs at least one vertex")
	}
	g := &Graph{N: n}
	for i := 0; i < n-1; i++ {
		g.Edges = append(g.Edges, Edge{int32(i), int32(i + 1)})
	}
	return g
}

// Star returns the star graph: vertex 0 joined to all others.
func Star(n int) *Graph {
	if n <= 0 {
		panic("graph: Star needs at least one vertex")
	}
	g := &Graph{N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, Edge{0, int32(i)})
	}
	return g
}

// KnownComponents builds a graph of k disjoint random connected
// components, each of size sz, and returns it with the ground-truth
// label of every vertex (the component index). Each component is a
// random spanning tree plus extra random internal edges.
func KnownComponents(k, sz int, seed uint64) (*Graph, []int32) {
	if k <= 0 || sz <= 0 {
		panic("graph: KnownComponents needs positive counts")
	}
	r := rng.New(seed)
	g := &Graph{N: k * sz}
	truth := make([]int32, g.N)
	for c := 0; c < k; c++ {
		base := int32(c * sz)
		for i := 0; i < sz; i++ {
			truth[int(base)+i] = int32(c)
		}
		// Random spanning tree: attach vertex i to a random earlier one.
		for i := 1; i < sz; i++ {
			j := r.Intn(i)
			g.Edges = append(g.Edges, Edge{base + int32(j), base + int32(i)})
		}
		// A few extra edges for cycles.
		for e := 0; e < sz/2 && sz > 2; e++ {
			u := int32(r.Intn(sz))
			v := int32(r.Intn(sz))
			if u != v {
				g.Edges = append(g.Edges, Edge{base + u, base + v})
			}
		}
	}
	return dedup(g), truth
}

// dedup canonicalizes and removes parallel edges.
func dedup(g *Graph) *Graph {
	for i, e := range g.Edges {
		if e.U > e.V {
			g.Edges[i] = Edge{e.V, e.U}
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].U != g.Edges[j].U {
			return g.Edges[i].U < g.Edges[j].U
		}
		return g.Edges[i].V < g.Edges[j].V
	})
	out := g.Edges[:0]
	for i, e := range g.Edges {
		if i == 0 || e != g.Edges[i-1] {
			out = append(out, e)
		}
	}
	g.Edges = out
	return g
}

// CountComponents returns the number of distinct labels in a component
// labeling.
func CountComponents(label []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range label {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// SameComponents reports whether two labelings induce the same partition
// of vertices, regardless of the label values chosen.
func SameComponents(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int32]int32)
	rev := make(map[int32]int32)
	for i := range a {
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := rev[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}

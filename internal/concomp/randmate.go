package concomp

import (
	"fmt"

	"pargraph/internal/graph"
	"pargraph/internal/rng"
)

// RandomMate labels components by random-mating graph contraction in the
// style of Reif and Phillips (the "random-mating" algorithm of Greiner's
// comparison). Each round flips a coin per component root; across every
// live edge, a tails root grafts onto a heads neighbor's root, pointers
// are recompressed, and edges internal to a component are discarded.
// Expected O(log n) rounds.
func RandomMate(g *graph.Graph, seed uint64) []int32 {
	d, live, heads := startMating(g)
	r := rng.New(seed)

	limit := 8 * maxIter(g.N) // randomized; generous slack before declaring a bug
	for round := 0; len(live) > 0; round++ {
		if round > limit {
			panic(fmt.Sprintf("concomp: RandomMate failed to converge after %d rounds", round))
		}
		live = mate(d, live, heads, r)
	}
	return d
}

// startMating is where RandomMate and Hybrid start: every vertex its
// own label, a copy of g's edges as the live set, and a coin slot per
// vertex.
func startMating(g *graph.Graph) (d []int32, live []graph.Edge, heads []bool) {
	validateInput(g)
	d = make([]int32, g.N)
	for i := range d {
		d[i] = int32(i)
	}
	return d, append([]graph.Edge(nil), g.Edges...), make([]bool, g.N)
}

// mate is one round of random-mating contraction, which RandomMate and
// Hybrid share. It flips one coin per vertex into heads, drawing them
// from r in vertex order, grafts tails roots onto heads roots across the
// live edges, recompresses d, and returns the live edges left once the
// contracted ones are discarded.
func mate(d []int32, live []graph.Edge, heads []bool, r *rng.RNG) []graph.Edge {
	// Only root coins are consulted.
	for i := range heads {
		heads[i] = r.Uint64()&1 == 0
	}
	for _, e := range live {
		ru, rv := d[e.U], d[e.V]
		if ru == rv {
			continue
		}
		switch {
		case !heads[ru] && heads[rv]:
			d[ru] = rv
		case !heads[rv] && heads[ru]:
			d[rv] = ru
		}
	}
	// Grafted roots are one level deep, so a single jump per vertex
	// restores the "every vertex points at a root" invariant.
	for i := range d {
		d[i] = d[d[i]]
	}
	return discard(d, live)
}

// discard returns the edges of live whose endpoints d labels apart,
// reusing live's storage.
func discard(d []int32, live []graph.Edge) []graph.Edge {
	out := live[:0]
	for _, e := range live {
		if d[e.U] != d[e.V] {
			out = append(out, e)
		}
	}
	return out
}

package concomp

import (
	"fmt"

	"pargraph/internal/graph"
	"pargraph/internal/rng"
)

// Hybrid labels components with the strategy of Greiner's best performer
// (the "hybrid" of his study, §4's related work): a few rounds of
// random-mating contraction knock the problem down cheaply while many
// components are merging, then the residual edges — few, but stubborn —
// are finished with deterministic grafting (SV-style), avoiding
// random-mating's long geometric tail.
func Hybrid(g *graph.Graph, seed uint64) []int32 {
	n := g.N
	d, live, heads := startMating(g)
	r := rng.New(seed)

	// Phase 1: random mating while it pays — each round should retire a
	// constant fraction of the live edges; stop after a fixed number of
	// rounds or once the edge set is small.
	const rounds = 4
	for round := 0; round < rounds && len(live) > n/8; round++ {
		live = mate(d, live, heads, r)
	}

	// Phase 2: finish deterministically on the contracted residue.
	limit := maxIter(n)
	for iter := 0; len(live) > 0; iter++ {
		if iter > limit {
			panic(fmt.Sprintf("concomp: Hybrid failed to converge after %d iterations", iter))
		}
		graft := false
		for _, e := range live {
			for dir := 0; dir < 2; dir++ {
				u, v := e.U, e.V
				if dir == 1 {
					u, v = v, u
				}
				if d[u] < d[v] && d[v] == d[d[v]] {
					d[d[v]] = d[u]
					graft = true
				}
			}
		}
		for i := range d {
			di := d[i]
			for d[di] != di {
				di = d[di]
			}
			d[i] = di
		}
		live = discard(d, live)
		if !graft && len(live) > 0 {
			panic("concomp: Hybrid stalled with live edges")
		}
	}
	return d
}

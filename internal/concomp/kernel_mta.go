package concomp

import (
	"fmt"

	"pargraph/internal/graph"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
)

// Simulated base addresses (in words) of the MTA kernel's arrays.
const (
	mtaEdgeBase = uint64(5) << 40
	mtaDBase    = uint64(6) << 40
)

// LabelMTA executes the paper's Alg. 3 — Shiloach–Vishkin on the MTA —
// against the machine model and returns the component labels. Each
// iteration is two parallel regions: the per-directed-edge graft loop
// and the per-vertex full-shortcut loop, separated by barriers.
//
// The graft flag is kept per-stream and OR-reduced at region end (the
// standard compilation of Alg. 3's `graft = 1`), so it does not hotspot.
func LabelMTA(g *graph.Graph, m *mta.Machine, sched sim.Sched) []int32 {
	validateInput(g)
	n := g.N
	d := initLabels(m, n, sched)
	if n == 0 {
		return d
	}

	limit := maxIter(n)
	for iter := 0; ; iter++ {
		if iter > limit {
			panic(fmt.Sprintf("concomp: LabelMTA failed to converge after %d iterations", iter))
		}
		graft := graftRoots(g, m, d, sched)

		// Full shortcut: while (D[i] != D[D[i]]) D[i] = D[D[i]]. The
		// pointer chase reads entries other iterations rewrite, so it is
		// ordered too.
		m.ParallelForOrdered(n, sched, func(i int, t *mta.Thread) {
			t.LoadDep(mtaDBase + uint64(i))
			di := d[i]
			t.Instr(1)
			for {
				t.LoadDep(mtaDBase + uint64(di))
				t.Instr(1)
				if d[di] == di {
					break
				}
				di = d[di]
			}
			if d[i] != di {
				t.Store(mtaDBase + uint64(i))
				d[i] = di
			}
		})
		m.Barrier()

		if !graft {
			return d
		}
	}
}

// initLabels is the region LabelMTA and LabelMTAStarCheck open with,
// D[i] = i over n vertices, and its barrier. It returns D.
func initLabels(m *mta.Machine, n int, sched sim.Sched) []int32 {
	d := make([]int32, n)
	m.ParallelFor(n, sched, func(i int, t *mta.Thread) {
		t.Store(mtaDBase + uint64(i))
		d[i] = int32(i)
	})
	m.Barrier()
	return d
}

// graftRoots is Alg. 3's graft loop over directed edges (i < 2m), which
// LabelMTA and LabelMTAStarCheck share, and its barrier: every root
// D[v] with a smaller neighbour label D[u] grafts onto it. Reads of
// E[i] overlap; D[v] then D[D[v]] are a dependent chain. Iterations
// communicate through d[] and the graft flag, so replay stays ordered
// under any host worker count. It reports whether anything grafted.
func graftRoots(g *graph.Graph, m *mta.Machine, d []int32, sched sim.Sched) bool {
	graft := false
	m.ParallelForOrdered(2*len(g.Edges), sched, func(k int, t *mta.Thread) {
		e := g.Edges[k/2]
		u, v := e.U, e.V
		if k&1 == 1 {
			u, v = v, u
		}
		t.Load2(mtaEdgeBase+uint64(k), mtaDBase+uint64(u))
		t.LoadDep2(mtaDBase+uint64(v), mtaDBase+uint64(d[v]))
		t.Instr(4)
		if d[u] < d[v] && d[v] == d[d[v]] {
			t.Store(mtaDBase + uint64(d[v]))
			t.Instr(1) // set the stream-local graft flag
			d[d[v]] = d[u]
			graft = true
		}
	})
	m.Barrier()
	return graft
}

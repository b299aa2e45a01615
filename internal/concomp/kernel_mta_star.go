package concomp

import (
	"fmt"

	"pargraph/internal/graph"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
)

const mtaStarBase = uint64(7) << 40

// LabelMTAStarCheck executes the Alg. 2 form of Shiloach–Vishkin on the
// MTA model: conditional grafting, star hooking with an explicit
// per-iteration star computation, and a *single* pointer-jump shortcut
// per iteration. It exists for ablation A4 — the paper notes that
// Alg. 3's full shortcut "eliminates step 2 … which involves a
// significant amount of computation and memory accesses"; comparing this
// variant with LabelMTA quantifies that claim.
//
// As in AwerbuchShiloach, hooks are restricted to strictly smaller
// labels so the algorithm is correct under any write arbitration.
func LabelMTAStarCheck(g *graph.Graph, m *mta.Machine, sched sim.Sched) []int32 {
	validateInput(g)
	n := g.N
	d := initLabels(m, n, sched)
	star := make([]bool, n)
	if n == 0 {
		return d
	}

	limit := 4 * maxIter(n)
	for iter := 0; ; iter++ {
		if iter > limit {
			panic(fmt.Sprintf("concomp: LabelMTAStarCheck failed to converge after %d iterations", iter))
		}
		// Step 1: conditional grafting of roots onto smaller labels.
		// Grafts, star passes, hooks, and the shortcut all communicate
		// through d[]/star[], so those regions replay ordered; only the
		// disjoint star reset shards across host workers.
		changed := graftRoots(g, m, d, sched)

		// Star computation: the three-pass test, each pass a full region
		// over the vertices — the cost Alg. 3 avoids.
		m.ParallelFor(n, sched, func(i int, t *mta.Thread) {
			t.Store(mtaStarBase + uint64(i))
			star[i] = true
		})
		m.Barrier()
		m.ParallelForOrdered(n, sched, func(i int, t *mta.Thread) {
			t.LoadDep2(mtaDBase+uint64(i), mtaDBase+uint64(d[i]))
			t.Instr(2)
			if d[i] != d[d[i]] {
				t.Store(mtaStarBase + uint64(i))
				t.Store(mtaStarBase + uint64(d[d[i]]))
				star[i] = false
				star[d[d[i]]] = false
			}
		})
		m.Barrier()
		m.ParallelForOrdered(n, sched, func(i int, t *mta.Thread) {
			t.LoadDep2(mtaDBase+uint64(i), mtaStarBase+uint64(d[i]))
			t.Instr(1)
			if !star[d[i]] {
				t.Store(mtaStarBase + uint64(i))
				star[i] = false
			}
		})
		m.Barrier()

		// Step 2: hook vertices still in stars onto smaller neighbors.
		m.ParallelForOrdered(2*len(g.Edges), sched, func(k int, t *mta.Thread) {
			e := g.Edges[k/2]
			u, v := e.U, e.V
			if k&1 == 1 {
				u, v = v, u
			}
			t.Load2(mtaEdgeBase+uint64(k), mtaStarBase+uint64(u))
			t.Instr(2)
			if !star[u] {
				return
			}
			t.Load(mtaDBase + uint64(u))
			t.LoadDep(mtaDBase + uint64(v))
			t.Instr(2)
			if d[v] < d[u] {
				t.Store(mtaDBase + uint64(d[u]))
				d[d[u]] = d[v]
				changed = true
			}
		})
		m.Barrier()

		// Step 3: a single pointer-jump shortcut.
		m.ParallelForOrdered(n, sched, func(i int, t *mta.Thread) {
			t.LoadDep2(mtaDBase+uint64(i), mtaDBase+uint64(d[i]))
			t.Instr(1)
			if ddi := d[d[i]]; ddi != d[i] {
				t.Store(mtaDBase + uint64(i))
				d[i] = ddi
				changed = true
			}
		})
		m.Barrier()

		if !changed {
			return d
		}
	}
}

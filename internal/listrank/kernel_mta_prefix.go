package listrank

import (
	"pargraph/internal/list"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
)

const mtaValBase = uint64(4) << 40

// PrefixMTA computes inclusive prefix sums along the list on the MTA
// model with the same compact–rank–expand structure as RankMTA. The
// paper's conclusion asks whether the list-ranking technique —
// "compact the list to super nodes, solve on the compacted list,
// expand" — is general; weighted prefix is its first generalization:
// walks accumulate value sums instead of counts, the compacted problem
// is a prefix over walk totals, and the expansion pass replays each walk
// adding its offset.
func PrefixMTA(l *list.List, vals []int64, m *mta.Machine, nwalk int, sched sim.Sched) []int64 {
	n := l.Len()
	if len(vals) != n {
		panic("listrank: prefix values length mismatch")
	}

	// Mark walk heads, reusing out[] as the mark array.
	out, headNode := markWalks(m, n, nwalk, l.Head, sched)
	nw := len(headNode)

	// Compact: walk each sublist summing its values. The host walks the
	// list once, before the region (see decompose).
	d := decompose(l, headNode, out, m.HostWorkers())
	sum := make([]int64, nw)
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
		nodes, last := d.of(i), d.after(i, headNode)
		t.Instr(2)
		t.Load(mtaValBase + uint64(nodes[0]))
		acc := vals[nodes[0]]
		for x, j := range nodes {
			nx := last
			if x+1 < len(nodes) {
				nx = int64(nodes[x+1])
			}
			if nx == list.NilNext {
				t.LoadDep(mtaSuccBase + uint64(j))
				break
			}
			t.LoadDep2(mtaSuccBase+uint64(j), mtaRankBase+uint64(nx))
			t.Instr(2)
			if x+1 == len(nodes) {
				break
			}
			t.Load(mtaValBase + uint64(nx))
			t.Instr(1)
			acc += vals[nx]
		}
		sum[i] = acc
		t.Store(mtaWalkBase + uint64(nw+i))
		t.Store(mtaWalkBase + uint64(2*nw+i))
	})

	// Rank the compacted list: one region reads the walk totals, then
	// pointer jumping accumulates, for each walk, the value total of it
	// and everything after it.
	var total int64
	for _, s := range sum {
		total += s
	}
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) { t.Instr(1); t.Load(mtaWalkBase + uint64(nw+i)) })
	suffix := jumpWalks(m, sum, d.next, sched)

	// Expand: replay each walk, emitting running sums from its offset.
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
		acc := total - suffix[i] // sum of all values before this walk
		t.Instr(3)
		for _, j := range d.of(i) {
			t.Load(mtaValBase + uint64(j))
			t.Instr(2)
			acc += vals[j]
			t.Store(mtaRankBase + uint64(j))
			t.LoadDep(mtaSuccBase + uint64(j))
			out[j] = acc
		}
	})
	return out
}

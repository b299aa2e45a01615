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
	if nwalk < 1 {
		nwalk = 1
	}
	if nwalk > n {
		nwalk = n
	}

	// Mark walk heads, reusing out[] as the mark array.
	out := make([]int64, n)
	m.ParallelFor(n, sched, func(i int, t *mta.Thread) {
		t.Store(mtaRankBase + uint64(i))
		out[i] = rankSentinel
	})
	headNode := make([]int, 0, nwalk)
	headNode = append(headNode, l.Head)
	out[l.Head] = 0
	for i := 1; i < nwalk; i++ {
		node := i * (n / nwalk)
		if out[node] != rankSentinel {
			continue
		}
		out[node] = int64(len(headNode))
		headNode = append(headNode, node)
	}
	nw := len(headNode)
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
		t.Instr(3)
		t.Store(mtaWalkBase + uint64(i))
		t.Store(mtaRankBase + uint64(headNode[i]))
	})

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

	// Rank the compacted list: pointer jumping accumulates, for each
	// walk, the value total of it and everything after it.
	suffix := make([]int64, nw)
	hop := make([]int32, nw)
	copy(suffix, sum)
	copy(hop, d.next)
	suffixNew := make([]int64, nw)
	hopNew := make([]int32, nw)
	var total int64
	for i := 0; i < nw; i++ {
		total += sum[i]
	}
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) { t.Instr(1); t.Load(mtaWalkBase + uint64(nw+i)) })
	rounds := 0
	for {
		if rounds > 2*64 {
			panic("listrank: walk chain does not terminate (cyclic list)")
		}
		rounds++
		// Hoisted out of the region body (see RankMTA) so iterations stay
		// write-disjoint under sharded host replay.
		jumping := false
		for _, h := range hop {
			if h >= 0 {
				jumping = true
				break
			}
		}
		m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
			t.Instr(2)
			if h := hop[i]; h >= 0 {
				t.Load(mtaWalkBase + uint64(3*nw+i))
				t.LoadDep(mtaWalkBase + uint64(3*nw+int(h)))
				t.Store(mtaWalkBase + uint64(4*nw+i))
				suffixNew[i] = suffix[i] + suffix[h]
				hopNew[i] = hop[h]
			} else {
				suffixNew[i] = suffix[i]
				hopNew[i] = -1
			}
		})
		m.Barrier()
		suffix, suffixNew = suffixNew, suffix
		hop, hopNew = hopNew, hop
		if !jumping {
			break
		}
	}

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

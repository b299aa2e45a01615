package listrank

import (
	"pargraph/internal/list"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
)

// Simulated base addresses (in words) of the MTA kernel's arrays. The
// machine hashes addresses, so only distinctness matters.
const (
	mtaSuccBase = uint64(1) << 40
	mtaRankBase = uint64(2) << 40
	mtaWalkBase = uint64(3) << 40
)

// DefaultWalksPerNode is the paper's operating point: "approximately 10
// list nodes per walk" with 100 streams per processor (§3).
const DefaultNodesPerWalk = 10

// RankMTA executes the paper's Alg. 1 — the walk-based MTA list-ranking
// code — against the MTA machine model and returns the ranks. nwalk is
// the number of walks (sublists); the paper's recipe is n/10. sched
// selects the loop schedule; the paper uses dynamic scheduling via
// int_fetch_add, and SchedBlock exists for the A1 ablation.
//
// The five simulated regions correspond one-to-one to the paper's code:
// the head-finding reduction, walk marking, the marked-walk traversal,
// the pointer-jumping combination of walk lengths, and the ranking
// re-traversal.
func RankMTA(l *list.List, m *mta.Machine, nwalk int, sched sim.Sched) []int64 {
	n := l.Len()
	if nwalk < 1 {
		nwalk = 1
	}
	if nwalk > n {
		nwalk = n
	}

	// Region 1: find the head: first = (n²+n)/2 - Σ list[i]. One load and
	// one add per node, fully parallel.
	m.ParallelFor(n, sched, func(i int, t *mta.Thread) {
		t.Load(mtaSuccBase + uint64(i))
		t.Instr(1)
	})
	head := list.FindHeadBySum(l.Succ)
	if head != l.Head {
		panic("listrank: corrupt list, computed head disagrees")
	}

	// Region 2: initialize rank[] to the sentinel and mark the walk
	// heads, reusing rank[] as the mark array exactly as Alg. 1 does.
	rank := make([]int64, n)
	m.ParallelFor(n, sched, func(i int, t *mta.Thread) {
		t.Store(mtaRankBase + uint64(i))
		rank[i] = rankSentinel
	})
	headNode := make([]int, 0, nwalk)
	headNode = append(headNode, head)
	rank[head] = 0
	for i := 1; i < nwalk; i++ {
		node := i * (n / nwalk)
		if rank[node] != rankSentinel {
			continue // collided with the head (or an earlier walk)
		}
		rank[node] = int64(len(headNode))
		headNode = append(headNode, node)
	}
	nw := len(headNode)
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
		t.Instr(3)
		t.Store(mtaWalkBase + uint64(i))           // head[i]
		t.Store(mtaRankBase + uint64(headNode[i])) // mark
	})

	// Region 3: traverse each walk until the next marked node, counting
	// its length. Each step is two dependent loads (list[j], rank[j])
	// plus loop arithmetic — the pointer chase that would devastate a
	// cache machine and that the MTA hides with streams. The host walks
	// the list once, before the region (see decompose); the region
	// charges every step from that walk.
	d := decompose(l, headNode, rank, m.HostWorkers())
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
		nodes, last := d.of(i), d.after(i, headNode)
		t.Instr(2)
		for x, j := range nodes {
			nx := last
			if x+1 < len(nodes) {
				nx = int64(nodes[x+1])
			}
			if nx == list.NilNext {
				t.LoadDep(mtaSuccBase + uint64(j))
				break
			}
			// Both dependent loads of the step charged in one call; the
			// charges and the recorded trace are identical to two LoadDep
			// calls, at half the charging overhead.
			t.LoadDep2(mtaSuccBase+uint64(j), mtaRankBase+uint64(nx))
			t.Instr(2)
		}
		t.Store(mtaWalkBase + uint64(nw+i))   // lnth[i]
		t.Store(mtaWalkBase + uint64(2*nw+i)) // next[i]
	})

	// Region 4: combine walk lengths by pointer jumping over the walk
	// chain (the paper's while(next[1] != 0) doubling loop). suffix[i]
	// converges to the total length of walk i and every walk after it,
	// so offset[i] = n - suffix[i].
	suffix := make([]int64, nw)
	hop := make([]int32, nw)
	for i, c := range d.length {
		suffix[i] = int64(c)
	}
	copy(hop, d.next)
	suffixNew := make([]int64, nw)
	hopNew := make([]int32, nw)
	rounds := 0
	for {
		if rounds > 2*64 {
			panic("listrank: walk chain does not terminate (cyclic list)")
		}
		rounds++
		// Any live hop means this round still jumps; hoisted out of the
		// region body so iterations stay write-disjoint under sharded
		// host replay.
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

	// Region 5: re-traverse each walk, writing final ranks from the walk
	// offset.
	m.ParallelFor(nw, sched, func(i int, t *mta.Thread) {
		off := int64(n) - suffix[i]
		t.Instr(3)
		for step, j := range d.of(i) {
			t.Store(mtaRankBase + uint64(j))
			t.LoadDep(mtaSuccBase + uint64(j))
			t.Instr(2)
			rank[j] = off + int64(step)
		}
	})
	return rank
}

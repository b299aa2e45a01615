package listrank

import (
	"pargraph/internal/list"
	"pargraph/internal/smp"
)

// PrefixSMP computes inclusive prefix sums along the list on the SMP
// machine model — the general ⊕ form of RankSMP, charging the
// Helman–JáJá steps to the simulated cache hierarchy. The walk of step 3
// additionally loads each node's value; the combining pass of step 5
// stays a contiguous array-order sweep, so the algorithm keeps its
// cache-friendliness for any ⊕.
//
// s is the number of sublists (the paper uses 8p); seed drives sublist
// sampling.
func PrefixSMP(l *list.List, vals []int64, m *smp.Machine, s int, seed uint64) []int64 {
	n := l.Len()
	if len(vals) != n {
		panic("listrank: prefix values length mismatch")
	}
	procs := m.Config().Procs

	// Simulated placement of the algorithm's arrays.
	succA := m.Alloc(n * elemBytes)   // the input list
	valsA := m.Alloc(n * elemBytes)   // the values being summed
	headOfA := m.Alloc(n * elemBytes) // sublist-head marks
	localA := m.Alloc(n * elemBytes)  // running prefix within sublist
	subA := m.Alloc(n * elemBytes)    // sublist index of each node
	outA := m.Alloc(n * elemBytes)    // output
	sideA := m.Alloc(4 * s * elemBytes)

	// Steps 1 and 2: find the head, then choose and mark the sublist
	// heads.
	heads := smpHeads(l, m, succA, headOfA, s, seed)

	// Step 3: walk the sublists accumulating value prefixes. Each node
	// costs the rank walk's references plus the value load.
	k := len(heads)
	d := decompose(l, heads, markHeads(n, heads), m.HostWorkers())
	pl, sums := d.sums(vals)
	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*k/procs, (p.ID()+1)*k/procs
		for i := lo; i < hi; i++ {
			nodes, last := d.of(i), d.after(i, heads)
			for x, j := range nodes {
				p.Load(addr(valsA, int64(j)))
				p.Store(addr(localA, int64(j)))
				p.Store(addr(subA, int64(j)))
				p.Compute(4)
				p.Load(addr(succA, int64(j)))
				nx := last
				if x+1 < len(nodes) {
					nx = int64(nodes[x+1])
				}
				if nx != list.NilNext {
					p.Load(addr(headOfA, nx))
				}
			}
		}
	})
	m.Barrier()

	// Steps 4 and 5: prefix the sublist value totals, then combine.
	return smpCombine(m, d, pl, sums, localA, subA, sideA, outA)
}

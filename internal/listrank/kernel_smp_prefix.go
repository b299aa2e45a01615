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

	addr := func(base uint64, i int64) uint64 { return base + uint64(i)*elemBytes }

	// Step 1: find the head by summing successor indices.
	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*n/procs, (p.ID()+1)*n/procs
		for i := lo; i < hi; i++ {
			p.Load(addr(succA, int64(i)))
			p.Compute(1)
		}
	})
	m.Barrier()
	if h := list.FindHeadBySum(l.Succ); h != l.Head {
		panic("listrank: corrupt list, computed head disagrees")
	}

	// Step 2: choose and mark the sublist heads (serial; s is tiny).
	heads := chooseSublistHeads(l, s, seed)
	m.Sequential(func(p *smp.Proc) {
		for _, h := range heads {
			p.Compute(6)
			p.Store(addr(headOfA, int64(h)))
		}
	})
	m.Barrier()

	// Step 3: walk the sublists accumulating value prefixes. Each node
	// costs the rank walk's references plus the value load.
	k := len(heads)
	workers := m.HostWorkers()
	d := decompose(l, heads, markHeads(n, heads), workers)
	pl, sums := d.sums(vals, workers)
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

	// Step 4: serial prefix over the sublist value totals.
	m.Sequential(func(p *smp.Proc) {
		for i := 0; i < k; i++ {
			p.Load(addr(sideA, int64(i)))
			p.Store(addr(sideA, int64(k+i)))
			p.Compute(2)
		}
	})
	off := chain(d.next, sums)
	m.Barrier()

	// Step 5: array-order combining pass.
	out := make([]int64, n)
	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*n/procs, (p.ID()+1)*n/procs
		for i := lo; i < hi; i++ {
			p.Load(addr(localA, int64(i)))
			p.Load(addr(subA, int64(i)))
			p.Load(addr(sideA, int64(k+int(pl[i].sub))))
			p.Compute(2)
			p.Store(addr(outA, int64(i)))
			out[i] = pl[i].at + off[pl[i].sub]
		}
	})
	m.Barrier()
	return out
}

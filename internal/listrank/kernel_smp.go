package listrank

import (
	"pargraph/internal/list"
	"pargraph/internal/smp"
)

// elemBytes is the element size charged to the simulated 2005-era SMP:
// the paper's C codes use 32-bit ints.
const elemBytes = 4

// RankSMP executes the Helman–JáJá algorithm against the SMP machine
// model: the same steps as HelmanJaja, with every memory reference
// charged to the simulated cache hierarchy and every phase boundary
// paying a software barrier. It returns the computed ranks; the cost of
// the run accumulates in m (read it with m.Seconds() or m.Stats()).
//
// s is the number of sublists (the paper uses 8p); seed drives sublist
// sampling.
func RankSMP(l *list.List, m *smp.Machine, s int, seed uint64) []int64 {
	n := l.Len()
	procs := m.Config().Procs

	// Simulated placement of the algorithm's arrays.
	succA := m.Alloc(n * elemBytes)   // the input list
	headOfA := m.Alloc(n * elemBytes) // sublist-head marks
	localA := m.Alloc(n * elemBytes)  // local rank within sublist
	subA := m.Alloc(n * elemBytes)    // sublist index of each node
	rankA := m.Alloc(n * elemBytes)   // output
	sideA := m.Alloc(4 * s * elemBytes)

	addr := func(base uint64, i int64) uint64 { return base + uint64(i)*elemBytes }

	// Step 1: find the head by summing successor indices (contiguous
	// sweep, each processor over its block).
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
			p.Compute(6) // draw the sample
			p.Store(addr(headOfA, int64(h)))
		}
	})
	m.Barrier()

	// Step 3: walk the sublists, each processor owning a contiguous range
	// of sublists. Every node costs a successor load, a mark check, and
	// two bookkeeping stores — non-contiguous when the layout is Random.
	// The host walks the list once, before the phase (see decompose).
	k := len(heads)
	workers := m.HostWorkers()
	d := decompose(l, heads, markHeads(n, heads), workers)
	pl := d.places(n, workers)
	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*k/procs, (p.ID()+1)*k/procs
		for i := lo; i < hi; i++ {
			nodes, last := d.of(i), d.after(i, heads)
			for x, j := range nodes {
				p.Store(addr(localA, int64(j)))
				p.Store(addr(subA, int64(j)))
				p.Compute(3)
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

	// Step 4: serial prefix over the sublist records.
	m.Sequential(func(p *smp.Proc) {
		for i := 0; i < k; i++ {
			p.Load(addr(sideA, int64(i)))
			p.Store(addr(sideA, int64(k+i)))
			p.Compute(2)
		}
	})
	off := chain(d.next, d.length)
	m.Barrier()

	// Step 5: array-order combining pass — the contiguous sweep that
	// makes the algorithm cache-friendly regardless of list layout.
	rank := make([]int64, n)
	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*n/procs, (p.ID()+1)*n/procs
		for i := lo; i < hi; i++ {
			p.Load(addr(localA, int64(i)))
			p.Load(addr(subA, int64(i)))
			p.Load(addr(sideA, int64(k+int(pl[i].sub))))
			p.Compute(2)
			p.Store(addr(rankA, int64(i)))
			rank[i] = int64(pl[i].at) + off[pl[i].sub]
		}
	})
	m.Barrier()
	return rank
}

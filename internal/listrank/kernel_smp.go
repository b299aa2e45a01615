package listrank

import (
	"pargraph/internal/list"
	"pargraph/internal/smp"
)

// elemBytes is the element size charged to the simulated 2005-era SMP:
// the paper's C codes use 32-bit ints.
const elemBytes = 4

// addr is the simulated address of element i of the array at base.
func addr(base uint64, i int64) uint64 { return base + uint64(i)*elemBytes }

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

	// Steps 1 and 2: find the head, then choose and mark the sublist
	// heads.
	heads := smpHeads(l, m, succA, headOfA, s, seed)

	// Step 3: walk the sublists, each processor owning a contiguous range
	// of sublists. Every node costs a successor load, a mark check, and
	// two bookkeeping stores — non-contiguous when the layout is Random.
	// The host walks the list once, before the phase (see decompose).
	k := len(heads)
	d := decompose(l, heads, markHeads(n, heads), m.HostWorkers())
	pl := d.places(n)
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

	// Steps 4 and 5: prefix the sublist lengths, then combine.
	return smpCombine(m, d, pl, d.length, localA, subA, sideA, rankA)
}

// smpHeads charges Helman–JáJá's steps 1 and 2, which RankSMP and
// PrefixSMP share, each followed by a barrier: the head-finding sweep
// over the list at succA (each processor sums the successor indices of
// its block), then the serial sampling of the s sublist heads and their
// marking in headOfA. It panics if the sum disagrees with l.Head and
// returns the heads.
func smpHeads(l *list.List, m *smp.Machine, succA, headOfA uint64, s int, seed uint64) []int {
	n, procs := l.Len(), m.Config().Procs
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

	// The sample is serial; s is tiny.
	heads := chooseSublistHeads(l, s, seed)
	m.Sequential(func(p *smp.Proc) {
		for _, h := range heads {
			p.Compute(6) // draw the sample
			p.Store(addr(headOfA, int64(h)))
		}
	})
	m.Barrier()
	return heads
}

// smpCombine charges Helman–JáJá's steps 4 and 5, which RankSMP and
// PrefixSMP share, each followed by a barrier: the serial prefix over
// the sublist records in sideA, then the array-order combining pass —
// the contiguous sweep that makes the algorithm cache-friendly
// regardless of list layout — which reads every node's place from
// localA and subA and stores its answer to outA. size is each
// sublist's total, pl every node's place; it returns the answers.
func smpCombine[T int32 | int64](m *smp.Machine, d *sublists, pl []place[T], size []T, localA, subA, sideA, outA uint64) []int64 {
	k, n, procs := len(size), len(pl), m.Config().Procs
	m.Sequential(func(p *smp.Proc) {
		for i := 0; i < k; i++ {
			p.Load(addr(sideA, int64(i)))
			p.Store(addr(sideA, int64(k+i)))
			p.Compute(2)
		}
	})
	off := chain(d.next, size)
	m.Barrier()

	out := make([]int64, n)
	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*n/procs, (p.ID()+1)*n/procs
		for i := lo; i < hi; i++ {
			p.Load(addr(localA, int64(i)))
			p.Load(addr(subA, int64(i)))
			p.Load(addr(sideA, int64(k+int(pl[i].sub))))
			p.Compute(2)
			p.Store(addr(outA, int64(i)))
			out[i] = int64(pl[i].at) + off[pl[i].sub]
		}
	})
	m.Barrier()
	return out
}

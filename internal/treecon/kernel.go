package treecon

// Simulated-machine kernels for tree contraction — the paper's stated
// future work ("we are currently developing additional graph algorithms
// for the MTA" and asking whether the compact/rank/expand technique is
// general). The pipeline is numberLeaves' Euler tour ranked by the
// machine's own list-ranking kernel, followed by charged rake rounds.
// Results are verified against EvalSequential by the tests.

import (
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

// contraction is the machine-independent state plus per-operation charge
// hooks, so the two kernels share one algorithm body.
type contraction struct {
	e      *Expr
	parent []int32
	isLeft []bool
	left   []int32
	right  []int32
	val    []int64
	lin    []linear
	root   int32
}

func newContraction(e *Expr) *contraction {
	n := e.Len()
	c := &contraction{
		e:      e,
		parent: make([]int32, n),
		isLeft: make([]bool, n),
		left:   append([]int32(nil), e.Left...),
		right:  append([]int32(nil), e.Right...),
		val:    append([]int64(nil), e.Val...),
		lin:    make([]linear, n),
		root:   e.Root,
	}
	for i := range c.lin {
		c.lin[i] = identity()
		c.parent[i] = -1
	}
	for v := 0; v < n; v++ {
		if e.Op[v] == OpLeaf {
			continue
		}
		c.parent[c.left[v]] = int32(v)
		c.isLeft[c.left[v]] = true
		c.parent[c.right[v]] = int32(v)
	}
	return c
}

// rake deletes leaf u and its parent, folding u's constant into the
// sibling's pending linear function.
func (c *contraction) rake(u int32) {
	v := c.parent[u]
	var w int32
	if c.isLeft[u] {
		w = c.right[v]
	} else {
		w = c.left[v]
	}
	cv := c.lin[u].apply(c.val[u])
	av, bv := c.lin[v].a, c.lin[v].b
	aw, bw := c.lin[w].a, c.lin[w].b
	switch c.e.Op[v] {
	case OpAdd:
		// x ↦ av·(aw·x + bw + cv) + bv
		c.lin[w] = linear{a: av * aw % Mod, b: (av*((bw+cv)%Mod)%Mod + bv) % Mod}
	case OpMul:
		// x ↦ av·((aw·x + bw)·cv) + bv
		ac := av * cv % Mod
		c.lin[w] = linear{a: ac * aw % Mod, b: (ac*bw%Mod + bv) % Mod}
	default:
		panic("treecon: raking under a leaf")
	}
	g := c.parent[v]
	c.parent[w] = g
	if g < 0 {
		c.root = w
	} else {
		c.isLeft[w] = c.isLeft[v]
		if c.isLeft[v] {
			c.left[g] = w
		} else {
			c.right[g] = w
		}
	}
}

// Simulated array bases (word addresses / byte offsets by machine).
const (
	tcParentBase = uint64(11) << 40
	tcLinBase    = uint64(12) << 40
	tcValBase    = uint64(13) << 40
	tcLeafBase   = uint64(14) << 40
)

// EvalMTA evaluates the expression on the MTA model: the Euler tour is
// ranked with the paper's Alg. 1 kernel, the leaf ordering is a charged
// counting pass, and each rake round is one parallel region.
func EvalMTA(e *Expr, m *mta.Machine, sched sim.Sched) int64 {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	if e.Len() == 1 {
		return e.Val[e.Root] % Mod
	}
	c := newContraction(e)

	// Initialize contraction state: one region over the nodes.
	m.ParallelFor(e.Len(), sched, func(i int, t *mta.Thread) {
		t.Instr(2)
		t.Store(tcParentBase + uint64(i))
		t.Store(tcLinBase + uint64(i))
	})

	// Rank the Euler tour with the machine's list-ranking kernel.
	l, downArc := buildTour(e)
	rank := listrank.RankMTA(l, m, l.Len()/listrank.DefaultNodesPerWalk, sched)

	// Order the leaves by arc rank: a scatter by rank (one region), the
	// parallel counting step of a bucket ordering.
	leaves := leavesByRank(e, downArc, rank)
	m.ParallelFor(len(leaves), sched, func(i int, t *mta.Thread) {
		t.Load(tcLeafBase + uint64(i))
		t.Instr(1)
		t.Store(tcLeafBase + uint64(len(leaves)+i))
	})
	m.Barrier()

	for len(leaves) > 1 {
		for pass := 0; pass < 2; pass++ {
			wantLeft := pass == 0
			// Rakes relink siblings and grandparents shared between
			// iterations, so rake rounds replay ordered under any host
			// worker count.
			m.ParallelForOrdered(len(leaves), sched, func(i int, t *mta.Thread) {
				t.Load(tcLeafBase + uint64(i))
				u := leaves[i]
				t.LoadDep(tcParentBase + uint64(u))
				t.Instr(3)
				if i%2 != 0 || c.isLeft[u] != wantLeft || c.parent[u] < 0 {
					return
				}
				// One rake: parent, sibling, grandparent reads; linear
				// composition; sibling relink writes.
				t.LoadDep(tcParentBase + uint64(c.parent[u])) // grandparent
				t.Load(tcLinBase + uint64(u))
				t.Load(tcValBase + uint64(u))
				t.Load(tcLinBase + uint64(c.parent[u]))
				t.Instr(8)
				c.rake(u)
				t.Store(tcLinBase + uint64(u)) // sibling's new lin + links
				t.Store(tcParentBase + uint64(u))
			})
			m.Barrier()
		}
		out := leaves[:0]
		for i := 1; i < len(leaves); i += 2 {
			out = append(out, leaves[i])
		}
		// Compaction of the survivors: one region of copies.
		m.ParallelFor(len(out), sched, func(i int, t *mta.Thread) {
			t.Load(tcLeafBase + uint64(2*i+1))
			t.Store(tcLeafBase + uint64(i))
			t.Instr(1)
		})
		m.Barrier()
		leaves = out
	}
	return c.lin[c.root].apply(c.val[c.root])
}

// EvalSMP evaluates the expression on the SMP cache model; the Euler
// tour is ranked with the Helman–JáJá SMP kernel and each rake round is
// one phase.
func EvalSMP(e *Expr, m *smp.Machine, seed uint64) int64 {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	if e.Len() == 1 {
		return e.Val[e.Root] % Mod
	}
	c := newContraction(e)
	n := e.Len()
	procs := m.Config().Procs

	parentA := m.Alloc(n * 4)
	linA := m.Alloc(n * 16)
	valA := m.Alloc(n * 8)
	leafA := m.Alloc(n * 4)

	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*n/procs, (p.ID()+1)*n/procs
		for i := lo; i < hi; i++ {
			p.Store(parentA + uint64(i)*4)
			p.Store(linA + uint64(i)*16)
			p.Compute(2)
		}
	})
	m.Barrier()

	l, downArc := buildTour(e)
	rank := listrank.RankSMP(l, m, 8*procs, seed)
	leaves := leavesByRank(e, downArc, rank)

	m.Phase(func(p *smp.Proc) {
		lo, hi := p.ID()*len(leaves)/procs, (p.ID()+1)*len(leaves)/procs
		for i := lo; i < hi; i++ {
			p.Load(leafA + uint64(i)*4)
			p.Store(leafA + uint64(i)*4)
			p.Compute(1)
		}
	})
	m.Barrier()

	for len(leaves) > 1 {
		for pass := 0; pass < 2; pass++ {
			wantLeft := pass == 0
			// Ordered for the same reason as EvalMTA's rake rounds: rakes
			// relink state shared between processor partitions.
			m.PhaseOrdered(func(p *smp.Proc) {
				lo, hi := p.ID()*len(leaves)/procs, (p.ID()+1)*len(leaves)/procs
				for i := lo; i < hi; i++ {
					p.Load(leafA + uint64(i)*4)
					u := leaves[i]
					p.Load(parentA + uint64(u)*4)
					p.Compute(3)
					if i%2 != 0 || c.isLeft[u] != wantLeft || c.parent[u] < 0 {
						continue
					}
					v := c.parent[u]
					p.Load(parentA + uint64(v)*4)
					p.Load(linA + uint64(u)*16)
					p.Load(valA + uint64(u)*8)
					p.Load(linA + uint64(v)*16)
					p.Compute(8)
					c.rake(u)
					p.Store(linA + uint64(u)*16)
					p.Store(parentA + uint64(u)*4)
				}
			})
			m.Barrier()
		}
		out := leaves[:0]
		for i := 1; i < len(leaves); i += 2 {
			out = append(out, leaves[i])
		}
		m.Phase(func(p *smp.Proc) {
			lo, hi := p.ID()*len(out)/procs, (p.ID()+1)*len(out)/procs
			for i := lo; i < hi; i++ {
				p.Load(leafA + uint64(2*i+1)*4)
				p.Store(leafA + uint64(i)*4)
				p.Compute(1)
			}
		})
		m.Barrier()
		leaves = out
	}
	return c.lin[c.root].apply(c.val[c.root])
}

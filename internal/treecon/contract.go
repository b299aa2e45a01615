package treecon

import (
	"fmt"
	"sort"

	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/par"
)

// linear is a pending function f(x) = a·x + b over Z_Mod.
type linear struct{ a, b int64 }

func identity() linear { return linear{a: 1, b: 0} }

func (f linear) apply(x int64) int64 { return (f.a*x%Mod + f.b) % Mod }

// EvalContract evaluates the expression by parallel tree contraction
// with p goroutine workers. It matches EvalSequential on every valid
// tree (enforced by the property tests).
func EvalContract(e *Expr, p int) int64 {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	n := e.Len()
	if n == 1 {
		return e.Val[e.Root] % Mod
	}

	c := newContraction(e)
	leaves := numberLeaves(e, p)

	limit := 4
	for s := 1; s < n; s <<= 1 {
		limit += 2
	}
	for round := 0; len(leaves) > 1; round++ {
		if round > limit {
			panic(fmt.Sprintf("treecon: contraction failed to converge after %d rounds", round))
		}
		// Pass 1: odd-numbered leaves that are left children; pass 2:
		// the remaining odd leaves (right children). The in-order
		// numbering guarantees the rakes within a pass are non-adjacent
		// and independent (JáJá §3.3).
		for pass := 0; pass < 2; pass++ {
			wantLeft := pass == 0
			par.For(len(leaves), p, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					if i%2 == 0 && c.isLeft[leaves[i]] == wantLeft && c.parent[leaves[i]] >= 0 {
						c.rake(leaves[i])
					}
				}
			})
		}
		// Renumber: the even-positioned leaves survive.
		out := leaves[:0]
		for i := 1; i < len(leaves); i += 2 {
			out = append(out, leaves[i])
		}
		leaves = out
		if len(leaves) == 0 {
			break
		}
	}
	return c.lin[c.root].apply(c.val[c.root])
}

// buildTour constructs the Euler tour of the expression tree as a
// compact linked list of 2(n−1) arcs: each non-root node v owns slots
// 2s(v) (the arc entering v from its parent) and 2s(v)+1 (the arc
// leaving v), where s is a dense renumbering of the non-root nodes. It
// returns the list and, for every node, the index of its entering
// (down) arc, or -1 for the root.
func buildTour(e *Expr) (*list.List, []int64) {
	n := e.Len()
	parent := make([]int32, n)
	isLeft := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	for v := 0; v < n; v++ {
		if e.Op[v] == OpLeaf {
			continue
		}
		parent[e.Left[v]] = int32(v)
		isLeft[e.Left[v]] = true
		parent[e.Right[v]] = int32(v)
	}
	// Dense slots for non-root nodes.
	slot := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		if parent[v] < 0 {
			slot[v] = -1
			continue
		}
		slot[v] = next
		next++
	}
	downArc := make([]int64, n)
	down := func(v int32) int64 { return int64(2 * slot[v]) }
	up := func(v int32) int64 { return int64(2*slot[v] + 1) }
	for v := 0; v < n; v++ {
		if slot[v] < 0 {
			downArc[v] = -1
		} else {
			downArc[v] = down(int32(v))
		}
	}

	succ := make([]int64, 2*int(next))
	for v := int32(0); int(v) < n; v++ {
		if slot[v] < 0 {
			continue // root has no arcs
		}
		// succ(down[v]): descend further or bounce at a leaf.
		if e.Op[v] == OpLeaf {
			succ[down(v)] = up(v)
		} else {
			succ[down(v)] = down(e.Left[v])
		}
		// succ(up[v]): cross to the right sibling or ascend.
		pv := parent[v]
		if isLeft[v] {
			succ[up(v)] = down(e.Right[pv])
		} else if parent[pv] >= 0 {
			succ[up(v)] = up(pv)
		} else {
			succ[up(v)] = list.NilNext // the tour ends at the root
		}
	}
	head := int(down(e.Left[e.Root]))
	return &list.List{Succ: succ, Head: head}, downArc
}

// leavesByRank converts arc ranks to the in-order leaf sequence.
func leavesByRank(e *Expr, downArc []int64, rank []int64) []int32 {
	type numbered struct {
		leaf int32
		rank int64
	}
	var ordered []numbered
	for v := int32(0); int(v) < e.Len(); v++ {
		if e.Op[v] == OpLeaf {
			ordered = append(ordered, numbered{leaf: v, rank: rank[downArc[v]]})
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].rank < ordered[j].rank })
	out := make([]int32, len(ordered))
	for i, o := range ordered {
		out[i] = o.leaf
	}
	return out
}

// numberLeaves returns the leaves in left-to-right (in-order) sequence.
// The ordering is computed the way the paper's pipeline does it: build
// the Euler tour of the tree as a linked list of arcs and rank it with
// the parallel Helman–JáJá list ranking; a leaf's position is the rank
// of its entering arc.
func numberLeaves(e *Expr, p int) []int32 {
	if e.Op[e.Root] == OpLeaf {
		return []int32{e.Root}
	}
	l, downArc := buildTour(e)
	rank := listrank.HelmanJaja(l, p)
	return leavesByRank(e, downArc, rank)
}

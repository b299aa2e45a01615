package pargraph

import (
	"pargraph/internal/euler"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
)

// Tree is a rooted tree: for every vertex its parent (-1 at the root),
// depth, and subtree size.
type Tree struct {
	N      int
	Root   int
	Parent []int32
	Depth  []int64
	Size   []int64
}

// RootTree roots a free tree (n vertices, exactly n-1 edges forming a
// single connected acyclic graph) at root, computing parents, depths and
// subtree sizes via the Euler-tour technique on top of parallel list
// ranking with procs goroutine workers — the class of application the
// paper motivates list ranking with.
func RootTree(n int, edges []Edge, root, procs int) (*Tree, error) {
	ie := make([]graph.Edge, len(edges))
	for i, e := range edges {
		ie[i] = graph.Edge{U: e.U, V: e.V}
	}
	t, err := euler.Root(n, ie, root, procs)
	if err != nil {
		return nil, err
	}
	return &Tree{N: t.N, Root: t.Root, Parent: t.Parent, Depth: t.Depth, Size: t.Size}, nil
}

// PrefixList computes inclusive prefix sums of vals along the list —
// the general ⊕ = + form of the prefix problem on linked lists (§3) —
// with the parallel Helman–JáJá algorithm.
func PrefixList(succ []int64, head int, vals []int64, procs int) []int64 {
	l := &list.List{Succ: succ, Head: head}
	return listrank.HelmanJajaPrefix(l, vals, procs)
}

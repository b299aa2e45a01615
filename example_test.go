package pargraph_test

import (
	"fmt"

	"pargraph"
)

// Rank a small ordered list: ranks equal positions.
func ExampleRankList() {
	l := pargraph.NewOrderedList(5)
	ranks := pargraph.RankList(l.Succ, l.Head, 2)
	fmt.Println(ranks)
	// Output: [0 1 2 3 4]
}

// Prefix sums along a list generalize ranking to any values.
func ExamplePrefixList() {
	l := pargraph.NewOrderedList(5)
	vals := []int64{1, 3, 5, 7, 9}
	fmt.Println(pargraph.PrefixList(l.Succ, l.Head, vals, 2))
	// Output: [1 4 9 16 25]
}

// Two triangles form two components.
func ExampleComponents() {
	g := pargraph.Graph{N: 6, Edges: []pargraph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	}}
	labels := pargraph.Components(g, 2)
	fmt.Println(pargraph.CountComponents(labels))
	fmt.Println(labels[0] == labels[2], labels[0] == labels[3])
	// Output:
	// 2
	// true false
}

// Root a path graph at one end: depths count along the path.
func ExampleRootTree() {
	edges := []pargraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	tree, err := pargraph.RootTree(4, edges, 0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(tree.Depth)
	fmt.Println(tree.Size)
	// Output:
	// [0 1 2 3]
	// [4 3 2 1]
}

// Evaluate 2*(3+4) by parallel tree contraction.
func ExampleEvalExpression() {
	e := pargraph.Expression{
		Root:  0,
		Op:    []pargraph.ExprOp{pargraph.ExprMul, pargraph.ExprLeaf, pargraph.ExprAdd, pargraph.ExprLeaf, pargraph.ExprLeaf},
		Left:  []int32{1, -1, 3, -1, -1},
		Right: []int32{2, -1, 4, -1, -1},
		Val:   []int64{0, 2, 0, 3, 4},
	}
	fmt.Println(pargraph.EvalExpression(e, 2))
	// Output: 14
}

// One call reruns the paper's Fig. 1 point on a simulated machine.
func ExampleSimulateListRank() {
	res := pargraph.SimulateListRank(pargraph.MTA, 1<<14, pargraph.Random, 4, 1)
	fmt.Println(res.Verified, res.Seconds > 0)
	// Output: true true
}

package pargraph

import (
	"pargraph/internal/graph"
	"pargraph/internal/treecon"
)

// ExprOp labels a node of an arithmetic expression tree.
type ExprOp uint8

const (
	// ExprLeaf is a constant in [0, ExprModulus).
	ExprLeaf ExprOp = iota
	// ExprAdd is binary addition.
	ExprAdd
	// ExprMul is binary multiplication.
	ExprMul
)

// ExprModulus is the field modulus expression evaluation works over
// (a Mersenne prime, so deep products cannot overflow).
const ExprModulus int64 = 1<<31 - 1

// Expression is a binary arithmetic expression tree in array form:
// internal nodes carry ExprAdd/ExprMul with two children; leaves carry
// constants.
type Expression struct {
	Root  int32
	Op    []ExprOp
	Left  []int32 // -1 at leaves
	Right []int32
	Val   []int64
}

func (e Expression) internal() *treecon.Expr {
	ops := make([]treecon.OpKind, len(e.Op))
	for i, op := range e.Op {
		ops[i] = treecon.OpKind(op)
	}
	return &treecon.Expr{Root: e.Root, Op: ops, Left: e.Left, Right: e.Right, Val: e.Val}
}

// RandomExpression builds a random full binary expression with nLeaves
// leaves, mixing + and × uniformly.
func RandomExpression(nLeaves int, seed uint64) Expression {
	t := treecon.RandomExpr(nLeaves, seed)
	ops := make([]ExprOp, len(t.Op))
	for i, op := range t.Op {
		ops[i] = ExprOp(op)
	}
	return Expression{Root: t.Root, Op: ops, Left: t.Left, Right: t.Right, Val: t.Val}
}

// EvalExpression evaluates the tree over Z_ExprModulus by parallel tree
// contraction (Euler tour + list ranking + rake) with procs goroutine
// workers — the expression-evaluation application the paper's
// introduction motivates list ranking with. It panics on a malformed
// tree.
func EvalExpression(e Expression, procs int) int64 {
	return treecon.EvalContract(e.internal(), procs)
}

// EvalExpressionSequential is the post-order baseline evaluator.
func EvalExpressionSequential(e Expression) int64 {
	return treecon.EvalSequential(e.internal())
}

// ScaleFreeGraph generates an R-MAT graph with 2^scale vertices and m
// distinct edges — the skewed-degree workload class that stresses the
// grafting algorithms through hub vertices.
func ScaleFreeGraph(scale, m int, seed uint64) Graph {
	return fromInternal(graph.RMAT(scale, m, seed))
}

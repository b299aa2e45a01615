// Package treecon evaluates arithmetic expression trees by parallel
// tree contraction — the application the paper's introduction cites for
// list ranking (Bader, Sreshta & Weisse-Bernstein's tree-contraction
// expression evaluation, HiPC 2002).
//
// The algorithm is the classic rake-based contraction (JáJá §3.3):
// leaves are numbered left to right (here by building the Euler tour of
// the tree and ranking it with the parallel list-ranking machinery —
// the exact pipeline the paper motivates), then O(log n) rounds each
// rake the odd-numbered leaves, first those that are left children and
// then those that are right children. Non-adjacent rakes never
// interfere, so each pass is fully parallel.
//
// Raking leaf u with parent v, sibling w and grandparent g deletes u
// and v, attaches w to g, and folds u's known value into a *linear*
// pending function on w: every node carries f(x) = a·x + b meaning "the
// value this subtree passes upward is f(computed value)". For ⊕ ∈
// {+, ×} with one operand constant, composition stays linear, which is
// the insight making contraction work.
//
// Arithmetic is over Z_p (p = 2³¹−1) so deep multiplication chains
// cannot overflow; the sequential evaluator uses the same field.
package treecon

import (
	"fmt"

	"pargraph/internal/rng"
)

// Mod is the field modulus (a Mersenne prime).
const Mod int64 = 1<<31 - 1

// OpKind labels an expression node.
type OpKind uint8

const (
	// OpLeaf is a constant.
	OpLeaf OpKind = iota
	// OpAdd is binary addition.
	OpAdd
	// OpMul is binary multiplication.
	OpMul
)

// Expr is a binary arithmetic expression tree in array form.
type Expr struct {
	Root  int32
	Op    []OpKind
	Left  []int32 // -1 for leaves
	Right []int32
	Val   []int64 // leaf constants in [0, Mod)
}

// Len returns the number of nodes.
func (e *Expr) Len() int { return len(e.Op) }

// Validate checks structural soundness: a proper binary tree in which
// every internal node has exactly two children, every node except the
// root has one parent, and leaf values are canonical field elements.
func (e *Expr) Validate() error {
	n := e.Len()
	if n == 0 {
		return fmt.Errorf("treecon: empty expression")
	}
	if len(e.Left) != n || len(e.Right) != n || len(e.Val) != n {
		return fmt.Errorf("treecon: ragged arrays")
	}
	if e.Root < 0 || int(e.Root) >= n {
		return fmt.Errorf("treecon: root %d out of range", e.Root)
	}
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		switch e.Op[i] {
		case OpLeaf:
			if e.Left[i] != -1 || e.Right[i] != -1 {
				return fmt.Errorf("treecon: leaf %d has children", i)
			}
			if e.Val[i] < 0 || e.Val[i] >= Mod {
				return fmt.Errorf("treecon: leaf %d value %d outside [0,%d)", i, e.Val[i], Mod)
			}
		case OpAdd, OpMul:
			for _, c := range []int32{e.Left[i], e.Right[i]} {
				if c < 0 || int(c) >= n {
					return fmt.Errorf("treecon: node %d child %d out of range", i, c)
				}
				indeg[c]++
			}
			if e.Left[i] == e.Right[i] {
				return fmt.Errorf("treecon: node %d has duplicate children", i)
			}
		default:
			return fmt.Errorf("treecon: node %d has unknown op %d", i, e.Op[i])
		}
	}
	if indeg[e.Root] != 0 {
		return fmt.Errorf("treecon: root has a parent")
	}
	seen := 0
	for i, d := range indeg {
		if int32(i) != e.Root && d != 1 {
			return fmt.Errorf("treecon: node %d has in-degree %d", i, d)
		}
		seen++
	}
	_ = seen
	// Reachability: every node must hang under the root.
	reach := 0
	stack := []int32{e.Root}
	visited := make([]bool, n)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[v] {
			return fmt.Errorf("treecon: node %d visited twice (cycle)", v)
		}
		visited[v] = true
		reach++
		if e.Op[v] != OpLeaf {
			stack = append(stack, e.Left[v], e.Right[v])
		}
	}
	if reach != n {
		return fmt.Errorf("treecon: only %d of %d nodes reachable", reach, n)
	}
	return nil
}

// RandomExpr builds a random full binary expression tree with nLeaves
// leaves (so 2·nLeaves−1 nodes), mixing + and × uniformly.
func RandomExpr(nLeaves int, seed uint64) *Expr {
	if nLeaves < 1 {
		panic("treecon: need at least one leaf")
	}
	r := rng.New(seed)
	n := 2*nLeaves - 1
	e := &Expr{
		Op:    make([]OpKind, n),
		Left:  make([]int32, n),
		Right: make([]int32, n),
		Val:   make([]int64, n),
	}
	for i := range e.Left {
		e.Left[i], e.Right[i] = -1, -1
	}
	// Grow by leaf splitting: pick a random current leaf and give it two
	// children; shapes are varied (not uniform over trees, but skewed
	// and deep enough to exercise contraction).
	leaves := []int32{0}
	next := int32(1)
	for len(leaves) < nLeaves {
		li := r.Intn(len(leaves))
		v := leaves[li]
		if r.Uint64()&1 == 0 {
			e.Op[v] = OpAdd
		} else {
			e.Op[v] = OpMul
		}
		l, rr := next, next+1
		next += 2
		e.Left[v], e.Right[v] = l, rr
		leaves[li] = l
		leaves = append(leaves, rr)
	}
	for _, v := range leaves {
		e.Val[v] = int64(r.Uint64n(uint64(Mod)))
	}
	e.Root = 0
	return e
}

// EvalSequential evaluates the tree with an explicit post-order stack —
// the baseline.
func EvalSequential(e *Expr) int64 {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	n := e.Len()
	val := make([]int64, n)
	done := make([]bool, n)
	stack := make([]int32, 0, n)
	stack = append(stack, e.Root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if e.Op[v] == OpLeaf {
			val[v] = e.Val[v]
			done[v] = true
			stack = stack[:len(stack)-1]
			continue
		}
		l, r := e.Left[v], e.Right[v]
		if done[l] && done[r] {
			if e.Op[v] == OpAdd {
				val[v] = (val[l] + val[r]) % Mod
			} else {
				val[v] = val[l] * val[r] % Mod
			}
			done[v] = true
			stack = stack[:len(stack)-1]
			continue
		}
		if !done[l] {
			stack = append(stack, l)
		}
		if !done[r] {
			stack = append(stack, r)
		}
	}
	return val[e.Root]
}

package treecon

import (
	"testing"
	"testing/quick"

	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
)

// build constructs a tree from a tiny LISP-ish spec for readable tests.
type spec interface{}

type add [2]spec
type mul [2]spec
type leaf int64

func build(s spec) *Expr {
	e := &Expr{}
	var rec func(s spec) int32
	rec = func(s spec) int32 {
		id := int32(e.Len())
		e.Op = append(e.Op, OpLeaf)
		e.Left = append(e.Left, -1)
		e.Right = append(e.Right, -1)
		e.Val = append(e.Val, 0)
		switch v := s.(type) {
		case leaf:
			e.Val[id] = int64(v) % Mod
		case add:
			e.Op[id] = OpAdd
			e.Left[id] = rec(v[0])
			e.Right[id] = rec(v[1])
		case mul:
			e.Op[id] = OpMul
			e.Left[id] = rec(v[0])
			e.Right[id] = rec(v[1])
		default:
			panic("bad spec")
		}
		return id
	}
	e.Root = rec(s)
	return e
}

func TestSequentialSmall(t *testing.T) {
	cases := []struct {
		expr spec
		want int64
	}{
		{leaf(7), 7},
		{add{leaf(2), leaf(3)}, 5},
		{mul{leaf(4), leaf(5)}, 20},
		{add{mul{leaf(2), leaf(3)}, leaf(4)}, 10},
		{mul{add{leaf(1), leaf(2)}, add{leaf(3), leaf(4)}}, 21},
		{add{add{add{leaf(1), leaf(1)}, leaf(1)}, leaf(1)}, 4},
	}
	for i, c := range cases {
		e := build(c.expr)
		if err := e.Validate(); err != nil {
			t.Fatalf("case %d invalid: %v", i, err)
		}
		if got := EvalSequential(e); got != c.want {
			t.Errorf("case %d: sequential = %d, want %d", i, got, c.want)
		}
		if got := EvalContract(e, 4); got != c.want {
			t.Errorf("case %d: contract = %d, want %d", i, got, c.want)
		}
	}
}

func TestModularReduction(t *testing.T) {
	// (Mod-1) * 2 must wrap.
	e := build(mul{leaf(Mod - 1), leaf(2)})
	want := (Mod - 1) * 2 % Mod
	if got := EvalContract(e, 2); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestDeepChainLeft(t *testing.T) {
	// (((...(1+1)+1)...)+1): a maximally unbalanced tree, the worst case
	// for naive parallel evaluation and the motivating case for rake.
	var s spec = leaf(1)
	const depth = 300
	for i := 0; i < depth; i++ {
		s = add{s, leaf(1)}
	}
	e := build(s)
	want := int64(depth + 1)
	if got := EvalSequential(e); got != want {
		t.Fatalf("sequential = %d, want %d", got, want)
	}
	if got := EvalContract(e, 4); got != want {
		t.Fatalf("contract = %d, want %d", got, want)
	}
}

func TestDeepChainRight(t *testing.T) {
	var s spec = leaf(2)
	const depth = 200
	for i := 0; i < depth; i++ {
		s = mul{leaf(1), s}
	}
	e := build(s)
	if got := EvalContract(e, 4); got != 2 {
		t.Fatalf("contract = %d, want 2", got)
	}
}

func TestRandomExprValid(t *testing.T) {
	for _, leaves := range []int{1, 2, 3, 10, 1000} {
		e := RandomExpr(leaves, uint64(leaves))
		if err := e.Validate(); err != nil {
			t.Fatalf("leaves=%d: %v", leaves, err)
		}
		// A valid full binary tree with L leaves has 2L-1 nodes.
		if e.Len() != 2*leaves-1 {
			t.Fatalf("leaves=%d: got %d nodes, want %d", leaves, e.Len(), 2*leaves-1)
		}
	}
}

func TestContractMatchesSequentialProperty(t *testing.T) {
	check := func(seed uint64, ll uint16, pp uint8) bool {
		nLeaves := int(ll)%800 + 1
		p := int(pp)%8 + 1
		e := RandomExpr(nLeaves, seed)
		return EvalContract(e, p) == EvalSequential(e)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestContractDeterministicAcrossP(t *testing.T) {
	e := RandomExpr(5000, 9)
	want := EvalContract(e, 1)
	for _, p := range []int{2, 4, 8} {
		if got := EvalContract(e, p); got != want {
			t.Fatalf("p=%d: %d, want %d", p, got, want)
		}
	}
}

func TestNumberLeavesInOrder(t *testing.T) {
	// ((a+b)*(c+d)): in-order leaves are a,b,c,d by construction order.
	e := build(mul{add{leaf(10), leaf(11)}, add{leaf(12), leaf(13)}})
	got := numberLeaves(e, 2)
	var vals []int64
	for _, lf := range got {
		vals = append(vals, e.Val[lf])
	}
	want := []int64{10, 11, 12, 13}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("leaf order %v, want %v", vals, want)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	ok := build(add{leaf(1), leaf(2)})
	cases := map[string]func(e *Expr){
		"leaf-with-child":  func(e *Expr) { e.Left[1] = 2 },
		"dup-children":     func(e *Expr) { e.Right[0] = e.Left[0] },
		"bad-root":         func(e *Expr) { e.Root = 99 },
		"out-of-range-val": func(e *Expr) { e.Val[1] = Mod },
		"cycle":            func(e *Expr) { e.Left[0] = 0 },
	}
	for name, corrupt := range cases {
		e := build(add{leaf(1), leaf(2)})
		corrupt(e)
		if e.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEvalPanicsOnInvalid(t *testing.T) {
	e := build(add{leaf(1), leaf(2)})
	e.Val[1] = -5
	defer func() {
		if recover() == nil {
			t.Fatal("invalid tree accepted")
		}
	}()
	EvalContract(e, 2)
}

func BenchmarkEvalSequential(b *testing.B) {
	e := RandomExpr(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalSequential(e)
	}
}

func BenchmarkEvalContract(b *testing.B) {
	e := RandomExpr(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalContract(e, 8)
	}
}

func TestEvalMTAMatchesSequential(t *testing.T) {
	check := func(seed uint64, ll uint16) bool {
		nLeaves := int(ll)%500 + 1
		e := RandomExpr(nLeaves, seed)
		m := mta.New(mta.DefaultConfig(2))
		got := EvalMTA(e, m, sim.SchedDynamic)
		if nLeaves > 1 && m.Cycles() <= 0 {
			return false
		}
		return got == EvalSequential(e)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalSMPMatchesSequential(t *testing.T) {
	check := func(seed uint64, ll uint16, pp uint8) bool {
		nLeaves := int(ll)%500 + 1
		p := int(pp)%8 + 1
		e := RandomExpr(nLeaves, seed)
		m := smp.New(smp.DefaultConfig(p))
		got := EvalSMP(e, m, seed^5)
		if nLeaves > 1 && m.Cycles() <= 0 {
			return false
		}
		return got == EvalSequential(e)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeEvalMTAFasterThanSMP extends the paper's thesis to its
// future-work algorithm: contraction's irregular child/parent chasing
// should favor the latency-tolerant machine.
func TestTreeEvalMTAFasterThanSMP(t *testing.T) {
	e := RandomExpr(1<<14, 3)
	mm := mta.New(mta.DefaultConfig(4))
	EvalMTA(e, mm, sim.SchedDynamic)
	sm := smp.New(smp.DefaultConfig(4))
	EvalSMP(e, sm, 3)
	if mm.Seconds() >= sm.Seconds() {
		t.Fatalf("MTA (%.4fs) not faster than SMP (%.4fs) on tree contraction", mm.Seconds(), sm.Seconds())
	}
}

func TestEvalMTASingleLeaf(t *testing.T) {
	e := build(leaf(9))
	if got := EvalMTA(e, mta.New(mta.DefaultConfig(1)), sim.SchedDynamic); got != 9 {
		t.Fatalf("got %d", got)
	}
}

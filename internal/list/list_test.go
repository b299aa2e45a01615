package list

import (
	"testing"
	"testing/quick"
)

func TestOrderedStructure(t *testing.T) {
	l := New(10, Ordered, 0)
	if l.Head != 0 {
		t.Fatalf("head = %d, want 0", l.Head)
	}
	for i := 0; i < 9; i++ {
		if l.Succ[i] != int64(i+1) {
			t.Fatalf("Succ[%d] = %d, want %d", i, l.Succ[i], i+1)
		}
	}
	if l.Succ[9] != NilNext {
		t.Fatalf("tail sentinel missing: Succ[9] = %d", l.Succ[9])
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomIsValidList(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1000} {
		l := New(n, Random, 42)
		if err := l.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRandomLayoutDeterministicPerSeed(t *testing.T) {
	a := New(500, Random, 7)
	b := New(500, Random, 7)
	c := New(500, Random, 8)
	same := true
	diff := false
	for i := range a.Succ {
		if a.Succ[i] != b.Succ[i] {
			same = false
		}
		if a.Succ[i] != c.Succ[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different lists")
	}
	if !diff {
		t.Fatal("different seeds produced identical lists")
	}
}

func TestRandomActuallyScattersNodes(t *testing.T) {
	l := New(10000, Random, 1)
	sequential := 0
	for i, s := range l.Succ {
		if s == int64(i+1) {
			sequential++
		}
	}
	if sequential > 100 {
		t.Fatalf("random layout has %d sequential links of 9999", sequential)
	}
}

func TestFindHeadBySum(t *testing.T) {
	check := func(seed uint64, sz uint16, ordered bool) bool {
		n := int(sz)%2000 + 1
		layout := Random
		if ordered {
			layout = Ordered
		}
		l := New(n, layout, seed)
		return FindHeadBySum(l.Succ) == l.Head
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRanksAcceptsCorrect(t *testing.T) {
	l := New(50, Random, 9)
	rank := make([]int64, 50)
	i, r := l.Head, int64(0)
	for {
		rank[i] = r
		if l.Succ[i] == NilNext {
			break
		}
		i, r = int(l.Succ[i]), r+1
	}
	if err := l.VerifyRanks(rank); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRanksRejectsWrong(t *testing.T) {
	l := New(50, Ordered, 0)
	rank := make([]int64, 50)
	for i := range rank {
		rank[i] = int64(i)
	}
	rank[25] = 99
	if l.VerifyRanks(rank) == nil {
		t.Fatal("corrupted rank accepted")
	}
	if l.VerifyRanks(rank[:10]) == nil {
		t.Fatal("short rank slice accepted")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	l := New(10, Ordered, 0)
	l.Succ[9] = 0 // close the loop
	if l.Validate() == nil {
		t.Fatal("cycle accepted")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	l := New(10, Ordered, 0)
	l.Succ[5] = 1000
	if l.Validate() == nil {
		t.Fatal("out-of-range successor accepted")
	}
}

func TestValidateCatchesShortChain(t *testing.T) {
	l := New(10, Ordered, 0)
	l.Succ[4] = NilNext // second tail cuts the list short
	if l.Validate() == nil {
		t.Fatal("short chain accepted")
	}
}

func TestSingletonList(t *testing.T) {
	l := New(1, Random, 5)
	if l.Head != 0 || l.Succ[0] != NilNext {
		t.Fatalf("singleton malformed: %+v", l)
	}
	if err := l.VerifyRanks([]int64{0}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, Ordered, 0)
}

func TestLayoutString(t *testing.T) {
	if Ordered.String() != "Ordered" || Random.String() != "Random" {
		t.Fatal("layout names wrong")
	}
	if Layout(9).String() == "" {
		t.Fatal("unknown layout printed empty")
	}
}

func BenchmarkNewRandom1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(1<<20, Random, uint64(i))
	}
}

func TestClusteredIsValidList(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 100, 1000, 1023, 1024, 1025} {
		l := New(n, Clustered, uint64(n))
		if err := l.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestClusteredHasRunLocality(t *testing.T) {
	l := New(10000, Clustered, 3)
	sequential := 0
	for i, s := range l.Succ {
		if s == int64(i+1) {
			sequential++
		}
	}
	// Within every full run, 7 of 8 links are sequential: expect ~87%.
	if sequential < 8000 {
		t.Fatalf("clustered layout has only %d sequential links of 9999", sequential)
	}
	// But runs are shuffled, so not all links are sequential.
	if sequential > 9500 {
		t.Fatalf("clustered layout looks fully ordered: %d sequential links", sequential)
	}
}

func TestClusteredFindHead(t *testing.T) {
	l := New(500, Clustered, 9)
	if FindHeadBySum(l.Succ) != l.Head {
		t.Fatal("head arithmetic wrong for clustered layout")
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times in 1000 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator produced repeats: %d unique of 100", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformityCoarse(t *testing.T) {
	// chi-square-ish sanity: 10 buckets over 100k draws should each hold
	// close to 10k.
	r := New(99)
	const draws = 100000
	var buckets [10]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(10)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-draws/10) > 600 {
			t.Fatalf("bucket %d has %d draws, expected ~%d", i, c, draws/10)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		p := New(seed).Perm(int(n) % 2048)
		seen := make([]bool, len(p))
		for _, v := range p {
			if v < 0 || v >= len(p) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermVariesWithSeed(t *testing.T) {
	a := New(1).Perm(100)
	b := New(2).Perm(100)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("permutations from different seeds agree on %d of 100 slots", 100-diff)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(11)
	p := []int{5, 5, 7, 9, 9, 9}
	q := append([]int(nil), p...)
	r.Shuffle(q)
	counts := map[int]int{}
	for _, v := range q {
		counts[v]++
	}
	if counts[5] != 2 || counts[7] != 1 || counts[9] != 3 {
		t.Fatalf("shuffle changed multiset: %v", q)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

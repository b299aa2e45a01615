package graph

import (
	"fmt"
	"reflect"
	"testing"

	"pargraph/internal/rng"
)

// randomGnmMap is the reference RandomGnm: the same draws, deduplicated
// through a Go map. RandomGnm must produce exactly its edge list.
func randomGnmMap(n, m int, seed uint64) *Graph {
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		panic(fmt.Sprintf("graph: RandomGnm(%d,%d): at most %d edges possible", n, m, maxM))
	}
	r := rng.New(seed)
	seen := make(map[uint64]struct{}, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, Edge{U: u, V: v})
	}
	return &Graph{N: n, Edges: edges}
}

func TestRandomGnmMatchesMapOracle(t *testing.T) {
	for _, c := range []struct {
		n, m int
		seed uint64
	}{
		{1, 0, 1}, {2, 1, 1}, {5, 10, 3}, {10, 44, 7}, {10, 45, 8},
		{50, 1225, 2}, {64, 2000, 5}, {100, 4900, 9}, {1000, 8000, 42},
		{4096, 16384, 1}, {8192, 131072, 50},
	} {
		got := RandomGnm(c.n, c.m, c.seed)
		want := randomGnmMap(c.n, c.m, c.seed)
		if got.N != want.N || !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Errorf("RandomGnm(%d, %d, %d) differs from the map oracle", c.n, c.m, c.seed)
		}
	}
}

func TestRandomGnmPanicsLikeOracle(t *testing.T) {
	msg := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	got := msg(func() { RandomGnm(10, 46, 1) })
	want := msg(func() { randomGnmMap(10, 46, 1) })
	if got == nil || got != want {
		t.Fatalf("RandomGnm(10, 46) panicked with %v, oracle %v", got, want)
	}
}

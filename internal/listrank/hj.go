package listrank

import (
	"pargraph/internal/list"
	"pargraph/internal/rng"
)

// chooseSublistHeads returns the starting nodes of the sublists: the
// list head first, then one node sampled from each block of the array,
// following the paper's step 2 ("partition the input list into s
// sublists by randomly choosing one node from each memory block of
// n/(s-1) nodes"). Duplicates collapse, so fewer than s heads may be
// returned; at least the list head always is.
func chooseSublistHeads(l *list.List, s int, seed uint64) []int {
	n := l.Len()
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	heads := make([]int, 0, s)
	taken := make(map[int]bool, s)
	heads = append(heads, l.Head)
	taken[l.Head] = true
	if s == 1 {
		return heads
	}
	r := rng.New(seed)
	blocks := s - 1
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		if lo >= hi {
			continue
		}
		v := lo + r.Intn(hi-lo)
		if !taken[v] {
			taken[v] = true
			heads = append(heads, v)
		}
	}
	return heads
}

// HelmanJaja ranks the list with the Helman–JáJá sublist algorithm using
// p goroutine workers and s = 8p sublists, the paper's SMP choice. The
// final combining pass runs in array order, which is what gives the
// algorithm its contiguous-access advantage on cache-based machines.
func HelmanJaja(l *list.List, p int) []int64 {
	return HelmanJajaS(l, p, 8*p, 0x5eed)
}

// HelmanJajaS is HelmanJaja with an explicit sublist count and sampling
// seed, for the s-sensitivity ablation (A3).
func HelmanJajaS(l *list.List, p, s int, seed uint64) []int64 {
	n := l.Len()
	heads := chooseSublistHeads(l, s, seed)

	// Step 3: walk the sublists on the p workers, recording every node's
	// sublist and its position in it.
	d := decompose(l, heads, markHeads(n, heads), p)
	pl := d.places(n)

	// Steps 4 and 5: serial prefix over the sublist lengths, then the
	// array-order combining pass.
	return combine(d, pl, chain(d.next, d.length))
}

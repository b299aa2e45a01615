package listrank

import (
	"pargraph/internal/list"
)

// SequentialPrefix computes the inclusive prefix sums of vals in list
// order: out[head] = vals[head], out[j] = out[pred(j)] + vals[j]. List
// ranking is the special case vals ≡ 1 shifted by one (§3: "list
// ranking is an instance of the more general prefix problem").
func SequentialPrefix(l *list.List, vals []int64) []int64 {
	out := make([]int64, l.Len())
	var acc int64
	j := int64(l.Head)
	for j != list.NilNext {
		acc += vals[j]
		out[j] = acc
		j = l.Succ[j]
	}
	return out
}

// HelmanJajaPrefix computes inclusive prefix sums in list order with the
// Helman–JáJá sublist algorithm on p goroutine workers — the general ⊕
// form of HelmanJaja, used by the Euler-tour tree computations.
func HelmanJajaPrefix(l *list.List, vals []int64, p int) []int64 {
	return helmanJajaPrefixS(l, vals, p, 8*p, 0x9eed)
}

func helmanJajaPrefixS(l *list.List, vals []int64, p, s int, seed uint64) []int64 {
	n := l.Len()
	if len(vals) != n {
		panic("listrank: prefix values length mismatch")
	}
	heads := chooseSublistHeads(l, s, seed)

	// Step 3: walk the sublists accumulating value prefixes instead of
	// positions.
	d := decompose(l, heads, markHeads(n, heads), p)
	pl, sums := d.sums(vals)

	// Steps 4 and 5: chain the sublists, prefixing their value totals,
	// then the array-order combining pass.
	return combine(d, pl, chain(d.next, sums))
}

// Package listrank implements the paper's first kernel (§3): computing,
// for every node of a linked list, its rank — the number of predecessors
// it has. List ranking is the special case of the list prefix problem
// with all values 1 and ⊕ = +, and is the building block of the
// tree-based algorithms the paper's introduction motivates.
//
// Four implementations are provided:
//
//   - Sequential: the pointer-following baseline every parallel speedup
//     is measured against.
//   - HelmanJaja: the Helman–JáJá sublist algorithm with native
//     goroutine parallelism, the paper's SMP algorithm.
//   - RankSMP: the same Helman–JáJá algorithm executed against the
//     internal/smp machine model, charging every memory reference to the
//     simulated cache hierarchy (used for Fig. 1, right).
//   - RankMTA: the paper's Alg. 1 walk-based code executed against the
//     internal/mta machine model (used for Fig. 1, left, and Table 1).
//
// All implementations produce identical ranks, which the tests enforce.
package listrank

// rankSentinel marks an unranked node; the MTA code reuses the rank
// array as the sublist-head marker exactly as the paper's Alg. 1 does.
const rankSentinel = -1

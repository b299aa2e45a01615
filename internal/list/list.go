// Package list builds and checks the linked-list workloads of the
// paper's list-ranking experiments (§3, §5).
//
// A list of n nodes lives in an array: Succ[i] is the array index of node
// i's successor, with NilNext marking the tail. The paper's two layouts
// are reproduced exactly:
//
//   - Ordered: node i sits at array position i and its successor at
//     position i+1, so a traversal sweeps memory sequentially — the SMP
//     best case.
//   - Random: successive list elements are placed at random array
//     positions, so a traversal is a random walk over memory — the SMP
//     worst case, and (per the paper) indistinguishable from Ordered on
//     the MTA.
package list

import (
	"fmt"

	"pargraph/internal/rng"
)

// NilNext marks the tail's successor slot.
const NilNext = -1

// List is a linked list in array representation.
type List struct {
	Succ []int64 // Succ[i] is the index of i's successor, NilNext at the tail
	Head int     // index of the first node
}

// Layout selects how list order maps to array position.
type Layout int

const (
	// Ordered places node i at position i (sequential traversal).
	Ordered Layout = iota
	// Random places successive nodes at random positions.
	Random
	// Clustered keeps runs of ClusterRun consecutive list nodes
	// contiguous but shuffles the runs — a locality middle ground
	// between Ordered and Random (a cache line's worth of spatial
	// locality, no more).
	Clustered
)

// ClusterRun is the run length of the Clustered layout, sized to a
// 2005-era cache line of 32-bit nodes.
const ClusterRun = 8

func (l Layout) String() string {
	switch l {
	case Ordered:
		return "Ordered"
	case Random:
		return "Random"
	case Clustered:
		return "Clustered"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Len returns the number of nodes.
func (l *List) Len() int { return len(l.Succ) }

// New builds a list of n nodes with the given layout. The seed matters
// only for Random. It panics if n <= 0.
func New(n int, layout Layout, seed uint64) *List {
	if n <= 0 {
		panic("list: size must be positive")
	}
	succ := make([]int64, n)
	switch layout {
	case Ordered:
		for i := 0; i < n-1; i++ {
			succ[i] = int64(i + 1)
		}
		succ[n-1] = NilNext
		return &List{Succ: succ, Head: 0}
	case Random:
		perm := rng.New(seed).Perm(n)
		for k := 0; k < n-1; k++ {
			succ[perm[k]] = int64(perm[k+1])
		}
		succ[perm[n-1]] = NilNext
		return &List{Succ: succ, Head: perm[0]}
	case Clustered:
		// The k-th node in list order sits at position
		// runOrder[k/R]*R + k%R: contiguous within a run, runs shuffled.
		runs := (n + ClusterRun - 1) / ClusterRun
		runOrder := rng.New(seed).Perm(runs)
		// Only full-length runs can be placed blindly; give the last,
		// short run a fixed slot by mapping run indices to offsets.
		offsets := make([]int, runs)
		next := 0
		for _, r := range runOrder {
			length := ClusterRun
			if r == runs-1 {
				length = n - (runs-1)*ClusterRun
			}
			offsets[r] = next
			next += length
		}
		pos := func(k int) int { return offsets[k/ClusterRun] + k%ClusterRun }
		for k := 0; k < n-1; k++ {
			succ[pos(k)] = int64(pos(k + 1))
		}
		succ[pos(n-1)] = NilNext
		return &List{Succ: succ, Head: pos(0)}
	default:
		panic(fmt.Sprintf("list: unknown layout %v", layout))
	}
}

// FindHeadBySum recomputes the head index with the paper's arithmetic
// trick (§3 step 1): every node except the head appears exactly once as
// a successor, so with a NilNext (= -1) tail sentinel,
//
//	head = n(n-1)/2 - (sum of Succ) - 1.
//
// It exists so implementations can avoid trusting the stored Head, as
// the paper's step 1 does.
func FindHeadBySum(succ []int64) int {
	n := int64(len(succ))
	var z int64
	for _, s := range succ {
		z += s
	}
	return int(n*(n-1)/2 - z - 1)
}

// VerifyRanks checks that rank assigns each node its 0-based distance
// from the head. It returns a descriptive error on the first mismatch.
//
// A valid answer is accepted by ranksConsistent, which makes independent
// loads; only a rejected one is walked from the head, in a dependent
// pointer chase, to name the first mismatch.
func (l *List) VerifyRanks(rank []int64) error {
	if len(rank) != l.Len() {
		return fmt.Errorf("list: rank slice has %d entries for %d nodes", len(rank), l.Len())
	}
	if l.ranksConsistent(rank) {
		return nil
	}
	i, r := l.Head, int64(0)
	for count := 0; count < l.Len(); count++ {
		if rank[i] != r {
			return fmt.Errorf("list: node %d has rank %d, want %d", i, rank[i], r)
		}
		next := l.Succ[i]
		if next == NilNext {
			if count != l.Len()-1 {
				return fmt.Errorf("list: premature tail at node %d (visited %d of %d)", i, count+1, l.Len())
			}
			return nil
		}
		i, r = int(next), r+1
	}
	return fmt.Errorf("list: traversal did not reach the tail (cycle?)")
}

// ranksConsistent reports whether rank[Head] == 0, exactly one node is a
// tail and has rank n-1, and every other node i has an in-range
// successor with rank[Succ[i]] == rank[i]+1. That is exactly what the
// walk in VerifyRanks accepts: walking from the head, the ranks then
// read 0, 1, 2, ..., so the nodes visited are distinct and the walk must
// reach a tail within n steps; the only tail has rank n-1, so it is
// reached at step n-1, after visiting every node once. Conversely an
// accepted walk visits all n nodes of one list, which satisfies every
// condition here.
func (l *List) ranksConsistent(rank []int64) bool {
	n := len(l.Succ)
	rank = rank[:n]
	if n == 0 || l.Head < 0 || l.Head >= n || rank[l.Head] != 0 {
		return false
	}
	tails := 0
	for i, s := range l.Succ {
		if s == NilNext {
			if rank[i] != int64(n-1) {
				return false
			}
			tails++
			continue
		}
		if uint64(s) >= uint64(n) || rank[s] != rank[i]+1 {
			return false
		}
	}
	return tails == 1
}

// Validate checks structural soundness: exactly one tail, every
// successor in range, every node reachable from Head exactly once.
func (l *List) Validate() error {
	n := l.Len()
	if l.Head < 0 || l.Head >= n {
		return fmt.Errorf("list: head %d out of range [0,%d)", l.Head, n)
	}
	seen := make([]bool, n)
	i := l.Head
	for count := 0; ; count++ {
		if count >= n {
			return fmt.Errorf("list: cycle detected")
		}
		if seen[i] {
			return fmt.Errorf("list: node %d visited twice", i)
		}
		seen[i] = true
		s := l.Succ[i]
		if s == NilNext {
			if count != n-1 {
				return fmt.Errorf("list: only %d of %d nodes reachable from head", count+1, n)
			}
			return nil
		}
		if s < 0 || s >= int64(n) {
			return fmt.Errorf("list: node %d has successor %d out of range", i, s)
		}
		i = int(s)
	}
}

package list

import (
	"fmt"
	"testing"
)

// verifyRanksWalk is the reference VerifyRanks: a walk from the head
// that checks each node's rank in list order. VerifyRanks must accept
// and reject exactly what it does, with the same error or panic.
func verifyRanksWalk(l *List, rank []int64) error {
	if len(rank) != l.Len() {
		return fmt.Errorf("list: rank slice has %d entries for %d nodes", len(rank), l.Len())
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

// outcome runs f and reports its error text or its panic, so two
// verifiers can be compared on malformed lists too.
func outcome(f func() error) (res string) {
	defer func() {
		if p := recover(); p != nil {
			res = fmt.Sprint("panic: ", p)
		}
	}()
	if err := f(); err != nil {
		return err.Error()
	}
	return "ok"
}

// trueRanks returns each node's distance from the head of a valid list.
func trueRanks(l *List) []int64 {
	rank := make([]int64, l.Len())
	for i, r := l.Head, int64(0); ; r++ {
		rank[i] = r
		if l.Succ[i] == NilNext {
			return rank
		}
		i = int(l.Succ[i])
	}
}

func TestVerifyRanksMatchesWalk(t *testing.T) {
	type tc struct {
		name string
		l    *List
		rank []int64
	}
	clone := func(l *List) *List {
		return &List{Succ: append([]int64(nil), l.Succ...), Head: l.Head}
	}
	var cases []tc
	for _, layout := range []Layout{Ordered, Random, Clustered} {
		for _, n := range []int{1, 2, 3, 17, 1000} {
			l := New(n, layout, uint64(n))
			rank := trueRanks(l)
			name := fmt.Sprintf("%v/n=%d", layout, n)
			cases = append(cases, tc{name + "/valid", l, rank})
			cases = append(cases, tc{name + "/short ranks", l, rank[:n-1]})
			if n < 3 {
				continue
			}
			tail := 0
			for l.Succ[tail] != NilNext {
				tail++
			}
			mid := int(l.Succ[l.Head])

			for _, at := range []int{l.Head, mid, tail} {
				wrong := append([]int64(nil), rank...)
				wrong[at]++
				cases = append(cases, tc{fmt.Sprintf("%s/wrong rank at %d", name, at), l, wrong})
			}
			swapped := append([]int64(nil), rank...)
			swapped[l.Head], swapped[tail] = swapped[tail], swapped[l.Head]
			cases = append(cases, tc{name + "/head and tail ranks swapped", l, swapped})

			twoTails := clone(l)
			twoTails.Succ[mid] = NilNext
			cases = append(cases, tc{name + "/two tails", twoTails, rank})

			ring := clone(l)
			ring.Succ[tail] = int64(l.Head)
			cases = append(cases, tc{name + "/ring", ring, rank})

			back := clone(l)
			back.Succ[mid] = int64(l.Head)
			cases = append(cases, tc{name + "/cycle back to head", back, rank})

			for _, bad := range []int64{int64(n), int64(n) + 5, -2} {
				out := clone(l)
				out.Succ[mid] = bad
				cases = append(cases, tc{fmt.Sprintf("%s/successor %d", name, bad), out, rank})
			}

			badHead := clone(l)
			badHead.Head = n
			cases = append(cases, tc{name + "/head out of range", badHead, rank})
		}
	}
	for _, c := range cases {
		want := outcome(func() error { return verifyRanksWalk(c.l, c.rank) })
		got := outcome(func() error { return c.l.VerifyRanks(c.rank) })
		if got != want {
			t.Errorf("%s: VerifyRanks = %q, walk = %q", c.name, got, want)
		}
	}
}

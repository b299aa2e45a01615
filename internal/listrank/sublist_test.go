package listrank

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pargraph/internal/list"
)

// walkState is the decomposition's oracle: it walks each sublist from
// its head one node at a time, recording every node's position and
// sublist, each sublist's length and successor, and the nodes it visited
// in order.
type walkState struct {
	heads    []int
	headOf   []int32 // headOf[v] = sublist index if v is a head, else -1
	local    []int64 // local rank of every node within its sublist
	sublist  []int32 // sublist index of every node
	length   []int64
	nextList []int32
	seq      [][]int32
}

func newWalkState(l *list.List, heads []int) *walkState {
	n := l.Len()
	w := &walkState{
		heads:    heads,
		headOf:   make([]int32, n),
		local:    make([]int64, n),
		sublist:  make([]int32, n),
		length:   make([]int64, len(heads)),
		nextList: make([]int32, len(heads)),
		seq:      make([][]int32, len(heads)),
	}
	for i := range w.headOf {
		w.headOf[i] = -1
	}
	for i, h := range heads {
		w.headOf[h] = int32(i)
	}
	return w
}

// walk traverses sublist i, filling local/sublist and the per-sublist
// length and successor.
func (w *walkState) walk(l *list.List, i int) {
	j := int64(w.heads[i])
	var cnt int64
	for {
		if cnt >= int64(l.Len()) {
			panic("listrank: list contains a cycle")
		}
		w.local[j] = cnt
		w.sublist[j] = int32(i)
		w.seq[i] = append(w.seq[i], int32(j))
		cnt++
		nx := l.Succ[j]
		if nx == list.NilNext {
			w.nextList[i] = -1
			break
		}
		if w.headOf[nx] >= 0 {
			w.nextList[i] = w.headOf[nx]
			break
		}
		j = nx
	}
	w.length[i] = cnt
}

// oracle walks every sublist serially, returning the panic it raised,
// if any.
func oracle(l *list.List, heads []int) (w *walkState, panicked any) {
	defer func() { panicked = recover() }()
	w = newWalkState(l, heads)
	for i := range heads {
		w.walk(l, i)
	}
	return w, nil
}

// decomposeOrPanic is decompose with its panic, if any, returned.
func decomposeOrPanic[M int32 | int64](l *list.List, heads []int, mark []M, workers int) (d *sublists, panicked any) {
	defer func() { panicked = recover() }()
	return decompose(l, heads, mark, workers), nil
}

// rankMarks returns the MTA kernels' marks for heads: rank[] holding
// each head's walk index and rankSentinel elsewhere.
func rankMarks(n int, heads []int) []int64 {
	rank := make([]int64, n)
	for i := range rank {
		rank[i] = rankSentinel
	}
	for i, h := range heads {
		rank[h] = int64(i)
	}
	return rank
}

// sameAsOracle reports how d differs from the serial walk, or "".
func sameAsOracle(d *sublists, w *walkState) string {
	if len(d.length) != len(w.length) {
		return fmt.Sprintf("%d sublists, oracle %d", len(d.length), len(w.length))
	}
	for i := range w.length {
		if int64(d.length[i]) != w.length[i] || d.next[i] != w.nextList[i] {
			return fmt.Sprintf("sublist %d: length %d next %d, oracle %d and %d", i, d.length[i], d.next[i], w.length[i], w.nextList[i])
		}
		if !slices.Equal(d.of(i), w.seq[i]) {
			return fmt.Sprintf("sublist %d: nodes %v, oracle %v", i, d.of(i), w.seq[i])
		}
	}
	return ""
}

// testHeads returns the head sets the decomposition is checked on: the
// list head only, every node, and sampled heads with duplicates
// collapsed, as HelmanJaja draws them.
func testHeads(l *list.List) map[string][]int {
	every := []int{l.Head}
	for v := range l.Len() {
		if v != l.Head {
			every = append(every, v)
		}
	}
	return map[string][]int{
		"head":    {l.Head},
		"every":   every,
		"sampled": chooseSublistHeads(l, 64, 3),
	}
}

// TestDecomposeMatchesSerialWalk compares the decomposition with the
// serial walk on every layout and head set, for both mark types and
// worker counts 1 to 4, whose results must be identical; and checks
// that places labels each node as the walk does.
func TestDecomposeMatchesSerialWalk(t *testing.T) {
	for _, layout := range []list.Layout{list.Ordered, list.Random, list.Clustered} {
		for _, n := range []int{1, 37, 5000} {
			l := list.New(n, layout, uint64(n))
			for name, heads := range testHeads(l) {
				w, p := oracle(l, heads)
				if p != nil {
					t.Fatalf("%v n=%d %s: oracle panicked: %v", layout, n, name, p)
				}
				for workers := 1; workers <= 4; workers++ {
					for _, d := range []*sublists{
						decompose(l, heads, markHeads(n, heads), workers),
						decompose(l, heads, rankMarks(n, heads), workers),
					} {
						if diff := sameAsOracle(d, w); diff != "" {
							t.Fatalf("%v n=%d %s workers=%d: %s", layout, n, name, workers, diff)
						}
						if len(d.nodes) != n {
							t.Fatalf("%v n=%d %s workers=%d: %d nodes laid out", layout, n, name, workers, len(d.nodes))
						}
						for v, pl := range d.places(n, workers) {
							if pl.sub != w.sublist[v] || int64(pl.at) != w.local[v] {
								t.Fatalf("%v n=%d %s workers=%d: node %d placed at %+v, oracle sublist %d position %d",
									layout, n, name, workers, v, pl, w.sublist[v], w.local[v])
							}
						}
					}
				}
			}
		}
	}
}

// TestDecomposeSums checks the prefix labels against a serial sum along
// each sublist.
func TestDecomposeSums(t *testing.T) {
	l := list.New(3000, list.Random, 4)
	vals := make([]int64, l.Len())
	for i := range vals {
		vals[i] = int64(i%13) - 6
	}
	heads := chooseSublistHeads(l, 32, 5)
	d := decompose(l, heads, markHeads(l.Len(), heads), 2)
	pl, total := d.sums(vals, 3)
	for i := range heads {
		var acc int64
		for _, v := range d.of(i) {
			acc += vals[v]
			if pl[v].sub != int32(i) || pl[v].at != acc {
				t.Fatalf("node %d: %+v, want sublist %d sum %d", v, pl[v], i, acc)
			}
		}
		if total[i] != acc {
			t.Fatalf("sublist %d total %d, want %d", i, total[i], acc)
		}
	}
}

// fuzzList builds a list of len(order) nodes laid out in the order the
// bytes of order sort in, and, when loop is nonzero, points the tail at
// node loop-1 (mod n), closing a cycle as TestCyclicListPanics does.
// Heads are the nodes whose bit is set in headBits, in node order.
func fuzzList(order, headBits []byte, loop uint16) (*list.List, []int) {
	n := len(order)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return int(order[a]) - int(order[b]) })
	succ := make([]int64, n)
	for k := 0; k+1 < n; k++ {
		succ[perm[k]] = int64(perm[k+1])
	}
	succ[perm[n-1]] = list.NilNext
	if loop > 0 {
		succ[perm[n-1]] = int64(int(loop-1) % n)
	}
	var heads []int
	for v := range n {
		if len(headBits) > 0 && headBits[v/8%len(headBits)]>>(v%8)&1 == 1 {
			heads = append(heads, v)
		}
	}
	return &list.List{Succ: succ, Head: perm[0]}, heads
}

// FuzzDecompose: on any list, cyclic or not, and any head set, the
// decomposition must match the serial walk or panic with the cycle
// message — and panic whenever the walk does.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte("a list of bytes"), []byte{0x11}, uint16(0), uint8(0))
	f.Add([]byte{5, 4, 3, 2, 1, 0}, []byte{0xff}, uint16(3), uint8(1))
	f.Add(make([]byte, 300), []byte{1, 0, 0, 0x80}, uint16(151), uint8(2))
	f.Add(make([]byte, 2500), []byte{0, 0, 1}, uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, order, headBits []byte, loop uint16, workers uint8) {
		if len(order) == 0 || len(order) > 1<<13 {
			return
		}
		l, heads := fuzzList(order, headBits, loop)
		w, wantPanic := oracle(l, heads)
		for _, d := range []func() (*sublists, any){
			func() (*sublists, any) {
				return decomposeOrPanic(l, heads, markHeads(l.Len(), heads), int(workers%4)+1)
			},
			func() (*sublists, any) {
				return decomposeOrPanic(l, heads, rankMarks(l.Len(), heads), int(workers%4)+1)
			},
		} {
			got, p := d()
			switch {
			case p != nil:
				if !strings.Contains(fmt.Sprint(p), "listrank: list contains a cycle") {
					t.Fatalf("panicked with %v", p)
				}
			case wantPanic != nil:
				t.Fatalf("the serial walk panicked (%v), the decomposition did not", wantPanic)
			default:
				if diff := sameAsOracle(got, w); diff != "" {
					t.Fatal(diff)
				}
			}
		}
	})
}

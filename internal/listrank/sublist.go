package listrank

import (
	"math"
	"sync/atomic"

	"pargraph/internal/list"
	"pargraph/internal/par"
)

// chaseWidth is how many sublists one host goroutine walks at once.
// Walking a list node by node waits the host's full memory latency on
// every node once the list outgrows the host's caches: the next load
// needs the address the last one returned. The nodes of different
// sublists do not depend on each other, so advancing several sublists
// per loop iteration keeps several of those misses in flight. On a
// 2^20-node Random list a serial walk took 160–182 ns per node and any
// width from 4 to 32 took 32–52 ns.
const chaseWidth = 8

// pieceLen is the size of the pieces a chase buffers an unfinished
// sublist in. Pieces are reused once their sublist is copied out, so a
// long sublist never regrows a buffer and a short one holds one piece.
// A sublist is checked against the list's length once per piece.
const pieceLen = 1024

// stageLen bounds the stage in which a chaser gathers short finished
// sublists, so that it reserves their room in the node array with one
// atomic add rather than one per sublist.
const stageLen = 4096

// sublists is a list cut into sublists at a set of heads: sublist i runs
// from heads[i] to the node before the next head, or to the list's
// tail. It is the host side of every list kernel's walk step, done once
// before the kernel's simulated regions or phases, which only read it.
// That is why it costs no simulated cycle: each region still charges
// every node of every walk, in list order, from these arrays.
type sublists struct {
	nodes  []int32 // every sublist's nodes in list order, one sublist after another
	start  []int32 // sublist i is nodes[start[i] : start[i]+length[i]]
	length []int32
	next   []int32 // the sublist after i, -1 past the list's tail
}

// of returns sublist i's nodes in list order.
func (d *sublists) of(i int) []int32 {
	s := d.start[i]
	return d.nodes[s : s+d.length[i]]
}

// after returns the node that follows sublist i's last node: the next
// sublist's head, or list.NilNext past the list's tail.
func (d *sublists) after(i int, heads []int) int64 {
	if nx := d.next[i]; nx >= 0 {
		return int64(heads[nx])
	}
	return list.NilNext
}

// decompose cuts l into sublists at heads. mark[v] holds v's index in
// heads when v is a head and is negative otherwise: the HelmanJaja and
// SMP kernels mark in headOf (see markHeads), the MTA kernels in rank[]
// as Alg. 1 does. Heads must be distinct.
//
// workers host goroutines (fewer when there are too few sublists to
// keep each chaseWidth wide) take the sublists in batches from a shared
// counter, so none idles while another still has sublists to start,
// and each walks chaseWidth of them at a time. Every sublist's nodes,
// length and successor are the same for any worker count and any run;
// only where in nodes a sublist sits varies.
//
// It panics with the cycle message when a sublist passes n nodes
// (checked once per pieceLen nodes) or when the sublists hold more than
// n nodes in all, which means a node is reached twice.
func decompose[M int32 | int64](l *list.List, heads []int, mark []M, workers int) *sublists {
	n, k := l.Len(), len(heads)
	if n > math.MaxInt32 {
		panic("listrank: list too long for 32-bit node indices")
	}
	d := &sublists{nodes: make([]int32, n), start: make([]int32, k), length: make([]int32, k), next: make([]int32, k)}
	workers = min(workers, max(k/chaseWidth, 1))
	sh := &share{k: k, batch: max(k/(64*workers), 1)}
	par.For(workers, workers, func(_, _, _ int) { chase(d, l.Succ, heads, mark, sh) })
	// Heads that skip the start of the list leave nodes unvisited.
	d.nodes = d.nodes[:sh.filled.Load()]
	return d
}

// share is what the goroutines chasing one decomposition share: how
// many sublists they have taken and how much of the node array they
// have filled.
type share struct {
	k, batch int
	taken    atomic.Int64
	filled   atomic.Int64
}

// take returns the next batch of sublists to walk, empty once none is
// left.
func (sh *share) take() (lo, hi int) {
	hi = int(sh.taken.Add(int64(sh.batch)))
	return min(hi-sh.batch, sh.k), min(hi, sh.k)
}

// room reserves m entries of d.nodes and returns the first. Sublists
// that need more entries than the list has nodes overlap.
func (sh *share) room(d *sublists, m int) int {
	end := int(sh.filled.Add(int64(m)))
	if end > len(d.nodes) {
		panic("listrank: list contains a cycle")
	}
	return end - m
}

// chase walks sublists taken from sh, chaseWidth at a time, starting
// the next sublist in a slot as soon as the slot's sublist ends, and
// hands each finished one to a chaser to copy into d.nodes.
func chase[M int32 | int64](d *sublists, succ []int64, heads []int, mark []M, sh *share) {
	n := len(succ)
	// Per slot: the sublist it walks (-1 once none is left), its next
	// node, its filled pieces, the piece being filled and that piece's
	// fill. Plain local arrays, with every rare step a chaser method,
	// keep the loop's own loads and stores few, so more nodes' misses
	// overlap; closures here doubled the loop's time.
	var (
		sub  [chaseWidth]int
		cur  [chaseWidth]int64
		full [chaseWidth][][]int32
		tail [chaseWidth][]int32
		fill [chaseWidth]int
	)
	c := &chaser{d: d, sh: sh, stage: make([]int32, 0, stageLen)}
	live := 0
	for s := range sub {
		tail[s] = c.piece()
		if sub[s] = c.next(); sub[s] >= 0 {
			cur[s] = int64(heads[sub[s]])
			live++
		}
	}
	for live > 0 {
		for s := range sub {
			if sub[s] < 0 {
				continue
			}
			f := fill[s]
			if f == pieceLen {
				if (len(full[s])+1)*pieceLen >= n {
					panic("listrank: list contains a cycle")
				}
				full[s] = append(full[s], tail[s])
				tail[s], f = c.piece(), 0
			}
			v := cur[s]
			tail[s][f] = int32(v)
			fill[s] = f + 1
			nx := succ[v]
			if nx != list.NilNext && mark[nx] < 0 {
				cur[s] = nx
				continue
			}
			// The sublist ends at the list's tail or before the next head.
			i := sub[s]
			d.next[i] = -1
			if nx != list.NilNext {
				d.next[i] = int32(mark[nx])
			}
			c.finish(i, full[s], tail[s][:f+1])
			full[s], fill[s] = full[s][:0], 0
			if sub[s] = c.next(); sub[s] >= 0 {
				cur[s] = int64(heads[sub[s]])
			} else {
				live--
			}
		}
	}
	c.flush()
}

// chaser is what one chasing goroutine keeps besides its slots: the
// sublists it has taken but not started, its spare pieces, and its
// stage, which holds the short finished sublists listed in staged with
// starts relative to the stage until flush moves them to d.nodes.
type chaser struct {
	d      *sublists
	sh     *share
	lo, hi int
	spare  [][]int32
	stage  []int32
	staged []int32
}

// next returns the next sublist to start, -1 once none is left.
func (c *chaser) next() int {
	if c.lo == c.hi {
		c.lo, c.hi = c.sh.take()
	}
	if c.lo == c.hi {
		return -1
	}
	c.lo++
	return c.lo - 1
}

// piece returns an empty piece, reusing a spare one when it can.
func (c *chaser) piece() []int32 {
	if len(c.spare) == 0 {
		return make([]int32, pieceLen)
	}
	p := c.spare[len(c.spare)-1]
	c.spare = c.spare[:len(c.spare)-1]
	return p
}

// finish copies finished sublist i, its full pieces then its tail, to
// d.nodes: a long one straight away, a short one through the stage. It
// keeps the full pieces for reuse.
func (c *chaser) finish(i int, full [][]int32, tail []int32) {
	d := c.d
	m := len(full)*pieceLen + len(tail)
	d.length[i] = int32(m)
	var dst []int32
	if m >= stageLen {
		at := c.sh.room(d, m)
		d.start[i], dst = int32(at), d.nodes[at:at+m]
	} else {
		if len(c.stage)+m > stageLen {
			c.flush()
		}
		d.start[i] = int32(len(c.stage))
		c.staged = append(c.staged, int32(i))
		c.stage = c.stage[:len(c.stage)+m]
		dst = c.stage[len(c.stage)-m:]
	}
	w := 0
	for _, p := range full {
		w += copy(dst[w:], p)
		c.spare = append(c.spare, p)
	}
	copy(dst[w:], tail)
}

// flush moves the staged sublists to d.nodes.
func (c *chaser) flush() {
	at := c.sh.room(c.d, len(c.stage))
	copy(c.d.nodes[at:], c.stage)
	for _, i := range c.staged {
		c.d.start[i] += int32(at)
	}
	c.stage, c.staged = c.stage[:0], c.staged[:0]
}

// place is where a node sits in the sublists: the sublist holding it,
// and at, its position in that sublist (ranking) or the sum of the
// values along the sublist up to and including it (prefix sums). One
// record per node makes labelling one scattered store per node, not
// two.
type place[T int32 | int64] struct {
	sub int32
	at  T
}

// places returns every node's place, at being its position, filled
// over workers host goroutines.
func (d *sublists) places(n, workers int) []place[int32] {
	pl := make([]place[int32], n)
	eachSublist(len(d.length), workers, func(i int) {
		for p, v := range d.of(i) {
			pl[v] = place[int32]{int32(i), int32(p)}
		}
	})
	return pl
}

// sums returns every node's place, at being the running sum of vals,
// and each sublist's total.
func (d *sublists) sums(vals []int64, workers int) ([]place[int64], []int64) {
	pl := make([]place[int64], len(vals))
	total := make([]int64, len(d.length))
	eachSublist(len(d.length), workers, func(i int) {
		var acc int64
		for _, v := range d.of(i) {
			acc += vals[v]
			pl[v] = place[int64]{int32(i), acc}
		}
		total[i] = acc
	})
	return pl, total
}

// eachSublist calls body for sublists 0..k-1 on workers host
// goroutines, which take them in batches as decompose's do, so that
// long and short sublists even out across the goroutines.
func eachSublist(k, workers int, body func(i int)) {
	sh := &share{k: k, batch: max(k/(64*workers), 1)}
	par.For(workers, workers, func(_, _, _ int) {
		for lo, hi := sh.take(); lo < hi; lo, hi = sh.take() {
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
	})
}

// chain follows the sublists from the one holding the list head
// (sublist 0) and returns, for each, the total of size over the
// sublists before it: step 4 of Helman–JáJá. The chain has one link per
// sublist, so this serial pass is negligible, exactly as in the paper.
func chain[T int32 | int64](next []int32, size []T) []int64 {
	off := make([]int64, len(size))
	var acc int64
	hops := 0
	for i := int32(0); i >= 0; i = next[i] {
		if hops == len(size) {
			panic("listrank: list contains a cycle")
		}
		hops++
		off[i] = acc
		acc += int64(size[i])
	}
	return off
}

// markHeads returns headOf: headOf[v] is v's index in heads when v is a
// head, -1 otherwise.
func markHeads(n int, heads []int) []int32 {
	headOf := make([]int32, n)
	for i := range headOf {
		headOf[i] = -1
	}
	for i, h := range heads {
		headOf[h] = int32(i)
	}
	return headOf
}

package mta

// tally is one replay worker's region-scoped accounting: everything a
// kernel body charges that is additive across iterations. Each host
// worker charges a private tally; merging them (integer adds and
// elementwise vector adds) is order-independent, which is what keeps the
// simulated results identical for any worker count.
//
// Bank reference counts are kept per bucket (see bankBuckets) and
// sparse: bankRefs is a dense vector for O(1) increments, and touched
// lists the buckets with a nonzero count so reset, merge, and the copy
// into the region's charges cost O(buckets touched) instead of
// O(buckets). A region that touches a handful of buckets (a serial
// section, a small loop) does not pay for the whole vector; counts only
// ever increment, so bankRefs[b] == 0 is a reliable "not yet touched"
// test.
type tally struct {
	refs      int64
	instrs    int64
	fetchAdds int64
	syncOps   int64
	ctrGrabs  int64 // grabs of the shared dynamic-schedule counter
	bankRefs  []int64
	touched   []int32
	hot       hotTally
}

func newTally(banks int) *tally {
	return &tally{bankRefs: make([]int64, banks)}
}

// addBank charges one reference to bucket b.
func (a *tally) addBank(b int) {
	if a.bankRefs[b] == 0 {
		a.touched = append(a.touched, int32(b))
	}
	a.bankRefs[b]++
}

// reset zeroes the tally in place; only the touched banks are cleared,
// and the backing storage is reused across regions.
func (a *tally) reset() {
	a.refs, a.instrs, a.fetchAdds, a.syncOps, a.ctrGrabs = 0, 0, 0, 0, 0
	for _, b := range a.touched {
		a.bankRefs[b] = 0
	}
	a.touched = a.touched[:0]
	a.hot.reset()
}

// merge folds b into a. All fields are counts, so the result does not
// depend on merge order.
func (a *tally) merge(b *tally) {
	a.refs += b.refs
	a.instrs += b.instrs
	a.fetchAdds += b.fetchAdds
	a.syncOps += b.syncOps
	a.ctrGrabs += b.ctrGrabs
	for _, bank := range b.touched {
		if a.bankRefs[bank] == 0 {
			a.touched = append(a.touched, bank)
		}
		a.bankRefs[bank] += b.bankRefs[bank]
	}
	a.hot.mergeFrom(&b.hot)
}

// hotSmallMax is how many distinct FEB words a region may touch before
// the hot-word tally spills from its linear-scan slices to a map. Real
// kernels synchronize on a handful of words per region (a lock word, a
// few tree nodes); the map exists only so adversarial regions stay
// correct, not fast.
const hotSmallMax = 16

// hotTally counts FEB (full/empty-bit) operations per word. The per-op
// cost of the old map[uint64]int64 — a hash and a bucket probe on every
// SyncLoad/SyncStore — dominated sync-heavy regions; up to hotSmallMax
// distinct words the counts now live in two small slices scanned
// linearly, which stays in registers and branch-predicts perfectly.
type hotTally struct {
	keys   []uint64
	counts []int64
	over   map[uint64]int64 // active overflow map; nil on the small path
	spare  map[uint64]int64 // cleared map retained for reuse across regions
}

func (h *hotTally) add(addr uint64, n int64) {
	if h.over != nil {
		h.over[addr] += n
		return
	}
	for i, k := range h.keys {
		if k == addr {
			h.counts[i] += n
			return
		}
	}
	if len(h.keys) < hotSmallMax {
		h.keys = append(h.keys, addr)
		h.counts = append(h.counts, n)
		return
	}
	if h.spare != nil {
		h.over = h.spare
		h.spare = nil
	} else {
		h.over = make(map[uint64]int64, 4*hotSmallMax)
	}
	for i, k := range h.keys {
		h.over[k] += h.counts[i]
	}
	h.keys, h.counts = h.keys[:0], h.counts[:0]
	h.over[addr] += n
}

func (h *hotTally) reset() {
	h.keys = h.keys[:0]
	h.counts = h.counts[:0]
	if h.over != nil {
		clear(h.over)
		h.spare = h.over
		h.over = nil
	}
}

func (h *hotTally) mergeFrom(b *hotTally) {
	if b.over != nil {
		for k, c := range b.over {
			h.add(k, c)
		}
		return
	}
	for i, k := range b.keys {
		h.add(k, b.counts[i])
	}
}

// max returns the highest per-word FEB count.
func (h *hotTally) max() int64 {
	var peak int64
	if h.over != nil {
		for _, c := range h.over {
			if c > peak {
				peak = c
			}
		}
		return peak
	}
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	return peak
}

// Package sim is the processor-sharing ("fluid") region simulator the
// MTA model (internal/mta) times its parallel regions with: RunRegion,
// its closed-form fast path RunUniformRegion, the in-flight item heap
// RunRegion pops completions from, and the issue-slot timeline of
// sample.go. It also holds CostSchemaVersion, the version of the cost
// semantics of the whole simulation stack (internal/smp included) that
// every cached result is keyed by.
//
// The fluid simulator is the timing heart of the MTA model. A Cray MTA
// processor issues at most one instruction per cycle, round-robin over its
// ready hardware streams; a stream that has issued a memory reference is
// blocked for the memory latency while the processor keeps issuing from
// other streams. Simulating that barrel cycle-by-cycle is exact but
// needlessly slow; instead we treat the processor's issue slot as a
// processor-sharing resource. Each in-flight work item demands issue
// bandwidth at rate (issue cycles)/(critical-path cycles); when the summed
// demand of the active streams exceeds 1.0 the processor saturates and all
// items stretch proportionally. Completions are simulated exactly as
// discrete events, which is what makes dynamic (int_fetch_add)
// scheduling, load imbalance, and end-of-loop tail effects come out of
// the model instead of being assumed.
package sim

import "math"

// Item is one unit of schedulable work in a parallel region — on the MTA,
// one iteration of a parallel loop (for list ranking, one walk).
//
// Issue is the number of processor issue slots the item consumes
// (instructions, including the issue slot of each memory reference).
// Crit is the item's critical path in cycles when run alone: issue cycles
// plus serialized memory latency. Crit is never less than Issue.
type Item struct {
	Issue float64
	Crit  float64
}

// Sched selects how region iterations are handed to hardware streams.
type Sched int

const (
	// SchedDynamic models `#pragma mta dynamic schedule`: a shared loop
	// counter bumped with int_fetch_add; each stream takes the next
	// iteration when it finishes its current one.
	SchedDynamic Sched = iota
	// SchedBlock pre-partitions iterations into contiguous equal blocks,
	// one block per stream, as a static compiler schedule would.
	SchedBlock
)

// RegionResult reports the simulated execution of one parallel region.
type RegionResult struct {
	Cycles float64 // wall time of the region in processor cycles
	Issued float64 // issue slots actually consumed, summed over processors
	Items  int     // number of items executed
}

// itemHeap is a hand-rolled binary min-heap of in-flight item groups
// ordered by nominal (virtual-time) finish. container/heap would box a
// flight into an interface on every push/pop — millions of allocations
// per region — so the sift operations are written out.
//
// Equal keys are common (two thirds of pops in a cold experiment pass
// have a tied partner, often with a different demand), and the pop order
// among ties fixes the order of the floating-point demand updates. So
// the heap must make exactly the comparisons of the classic swap-based
// sift-up and sift-down; it only makes each step cheaper:
//
//   - the keys live in their own dense array, as IEEE bits (finishV is
//     never negative, so bit order is numeric order), and the payloads
//     beside them;
//   - sifts move a hole instead of swapping entries;
//   - pop is Floyd's: the hole walks from the root down the min-child
//     path (left child on ties) to the bottom, then the displaced last
//     entry sifts back up past every path key >= its own. Keys never
//     decrease along the path, so it lands exactly where the classic
//     sift-down, which descends while the smaller child is strictly
//     smaller, would stop.
type itemHeap struct {
	keys  []uint64 // math.Float64bits(finishV)
	cargo []cargo
}

// flight is a group of count identical in-flight items on one processor:
// same virtual finish time, same issue-rate demand. Under dynamic
// scheduling streams are anonymous — a completion pulls the globally next
// item whatever stream it ran on — so identical concurrent items are
// interchangeable and one heap entry can carry all of them. Under block
// scheduling the stream identity picks the refill block, so groups are
// always singletons there and the heap degenerates to the classic
// one-entry-per-item form.
type flight struct {
	finishV float64 // virtual time at which the group's items complete
	cargo
}

// cargo is the part of a flight the heap does not order by.
type cargo struct {
	demand float64 // issue-rate demand of one item while active
	count  int32   // identical items carried by this entry
	stream int32   // global stream index, for block scheduling refill
}

func (h *itemHeap) len() int { return len(h.keys) }

// minKey returns the smallest finishV; the heap must not be empty.
func (h *itemHeap) minKey() float64 { return math.Float64frombits(h.keys[0]) }

func (h *itemHeap) push(f flight) {
	k := math.Float64bits(f.finishV)
	h.keys = append(h.keys, k)
	h.cargo = append(h.cargo, f.cargo)
	keys, cg := h.keys, h.cargo
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if keys[parent] <= k {
			break
		}
		keys[i], cg[i] = keys[parent], cg[parent]
		i = parent
	}
	keys[i], cg[i] = k, f.cargo
}

func (h *itemHeap) pop() flight {
	keys, cg := h.keys, h.cargo
	top := flight{finishV: math.Float64frombits(keys[0]), cargo: cg[0]}
	n := len(keys) - 1
	xk, xc := keys[n], cg[n]
	keys, cg = keys[:n], cg[:n]
	h.keys, h.cargo = keys, cg
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c+1 >= n {
			if c < n { // a lone left child
				keys[i], cg[i] = keys[c], cg[c]
				i = c
			}
			break
		}
		// c+1 if its key is smaller, else c: keys have a clear sign bit,
		// so the difference wraps past 2^63 exactly when keys[c+1] <
		// keys[c]. Written without a branch, which would mispredict on
		// every other level.
		c += int((keys[c+1] - keys[c]) >> 63)
		keys[i], cg[i] = keys[c], cg[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if keys[parent] < xk {
			break
		}
		keys[i], cg[i] = keys[parent], cg[parent]
		i = parent
	}
	keys[i], cg[i] = xk, xc
	return top
}

// procState is the processor-sharing state of one processor's issue slot.
//
// All active streams on a processor stretch uniformly when the summed
// issue demand exceeds 1.0, so item progress can be tracked in a shared
// virtual time V that advances at wall rate 1/max(1, demand).
type procState struct {
	inflight itemHeap
	pending  []flight // starts accumulated during one completion batch
	v        float64  // current virtual time
	demand   float64  // sum of active item demands
	wall     float64  // wall time at which v and demand were last valid
	issued   float64
}

func (p *procState) stretch() float64 {
	if p.demand > 1 {
		return p.demand
	}
	return 1
}

// advance moves the processor's local clocks to wall time t. Completion
// times are reconstructed from virtual time with floating-point rounding,
// so a tiny negative step is clamped; a large one is a model bug. A
// non-nil tl additionally records the issue slots used over the step
// into the region's timeline; it never alters the timing math.
func (p *procState) advance(t float64, tl *IssueTimeline) {
	if t < p.wall {
		if p.wall-t > 1e-6*(1+p.wall) {
			panic("sim: processor clock moved backwards")
		}
		t = p.wall
	}
	dt := t - p.wall
	if dt > 0 {
		p.v += dt / p.stretch()
		used := p.demand
		if used > 1 {
			used = 1
		}
		p.issued += float64(dt * used)
		if tl != nil {
			tl.add(p.wall, t, used)
		}
		p.wall = t
	}
}

// nextFinishWall returns the wall time of this processor's earliest item
// completion, or +inf if it has none in flight.
func (p *procState) nextFinishWall() float64 {
	if p.inflight.len() == 0 {
		return inf
	}
	dv := p.inflight.minKey() - p.v
	if dv < 0 {
		dv = 0
	}
	return p.wall + float64(dv*p.stretch())
}

// start charges one started item's demand to the processor and returns
// its flight.
func (p *procState) start(it Item, stream int32) flight {
	crit := it.Crit
	if crit < it.Issue {
		crit = it.Issue
	}
	if crit <= 0 {
		crit = 1e-9
	}
	d := it.Issue / crit
	p.demand += d
	return flight{finishV: p.v + crit, cargo: cargo{demand: d, count: 1, stream: stream}}
}

// enqueue stages one started item in the pending buffer, run-length
// collapsing it into the previous entry when it is identical (same
// finish and demand — possible only under dynamic scheduling, where the
// stream refill identity does not matter). The buffer is flushed into
// the heap at the end of the batch.
func (p *procState) enqueue(it Item, stream int32, group bool) {
	f := p.start(it, stream)
	if np := len(p.pending); group && np > 0 && p.pending[np-1].finishV == f.finishV && p.pending[np-1].demand == f.demand {
		p.pending[np-1].count++
	} else {
		p.pending = append(p.pending, f)
	}
}

// flush moves the pending starts into the in-flight heap.
func (p *procState) flush() {
	for _, f := range p.pending {
		p.inflight.push(f)
	}
	p.pending = p.pending[:0]
}

// feed hands out a region's items in schedule order.
type feed struct {
	items []Item
	next  int   // dynamic: the shared loop counter
	block []int // block: stream s's next item and end, at 2s and 2s+1
}

// pull returns the next item for global stream s, or ok=false.
func (f *feed) pull(s int32) (it Item, ok bool) {
	if f.block == nil {
		if f.next >= len(f.items) {
			return Item{}, false
		}
		f.next++
		return f.items[f.next-1], true
	}
	c := &f.block[2*s]
	if *c >= f.block[2*s+1] {
		return Item{}, false
	}
	*c++
	return f.items[*c-1], true
}

const inf = 1e300

// RunRegion simulates one parallel region of items on procs processors
// with streamsPerProc hardware streams each, and returns its wall time in
// cycles plus the issue slots consumed.
//
// The model is exact at item granularity: completions are discrete events,
// streams pick up new work according to sched, and each processor's issue
// slot is a processor-sharing resource (see the package comment).
func RunRegion(procs, streamsPerProc int, items []Item, sched Sched) RegionResult {
	return runRegion(procs, streamsPerProc, items, sched, nil)
}

// RunRegionTimeline is RunRegion with an issue-slot timeline: tl.Used
// accumulates, per tl.Interval-cycle bucket, the issue slots the region
// consumes. The returned RegionResult is bit-identical to RunRegion's —
// the timeline only observes.
func RunRegionTimeline(procs, streamsPerProc int, items []Item, sched Sched, tl *IssueTimeline) RegionResult {
	if tl == nil || tl.Interval <= 0 {
		panic("sim: RunRegionTimeline needs a timeline with a positive interval")
	}
	return runRegion(procs, streamsPerProc, items, sched, tl)
}

// runRegion is the discrete-event loop. Two structural optimizations
// keep its serial cost from dominating host-parallel replays, both
// exact:
//
//   - Identical concurrent items are run-length collapsed into one heap
//     entry (flight.count), and a group's simultaneous completions are
//     processed as one batch. Under dynamic scheduling streams are
//     anonymous, so which of several identical in-flight items finishes
//     "first" at the shared instant is unobservable: the batch performs
//     the same per-item demand updates and pulls, in the same global
//     item order, as the classic one-event-per-item loop.
//   - Each processor's earliest completion time is cached (nf) and
//     recomputed only for the processor an event actually touched; an
//     event never changes any other processor's clocks or heap.
func runRegion(procs, streamsPerProc int, items []Item, sched Sched, tl *IssueTimeline) RegionResult {
	if procs <= 0 || streamsPerProc <= 0 {
		panic("sim: region needs at least one processor and one stream")
	}
	n := len(items)
	if n == 0 {
		return RegionResult{}
	}
	ps := make([]procState, procs)
	totalStreams := procs * streamsPerProc
	group := sched == SchedDynamic

	f := feed{items: items}
	if !group {
		// Block scheduling: stream s owns items [s*n/S, (s+1)*n/S).
		f.block = make([]int, 2*totalStreams)
		for s := 0; s < totalStreams; s++ {
			f.block[2*s] = s * n / totalStreams
			f.block[2*s+1] = (s + 1) * n / totalStreams
		}
	}

	// Prime every stream.
	for s := 0; s < totalStreams; s++ {
		p := &ps[s/streamsPerProc]
		if it, ok := f.pull(int32(s)); ok {
			p.enqueue(it, int32(s), group)
		}
	}
	for i := range ps {
		ps[i].flush()
	}

	// Earliest-finish index: nf[i] caches ps[i].nextFinishWall().
	nf := make([]float64, procs)
	for i := range ps {
		nf[i] = ps[i].nextFinishWall()
	}

	now := 0.0
	done := 0
	for done < n {
		// Earliest completion across processors, in wall time.
		best, bestT := -1, inf
		for i, t := range nf {
			if t < bestT {
				bestT, best = t, i
			}
		}
		if best < 0 {
			panic("sim: region deadlocked with items remaining")
		}
		now = bestT
		p := &ps[best]
		p.advance(now, tl)
		g := p.inflight.pop()
		for k := int32(0); k < g.count; k++ {
			p.demand -= g.demand
			if p.demand < 1e-12 {
				p.demand = 0
			}
			done++
			if it, ok := f.pull(g.stream); ok {
				if g.count == 1 {
					// The batch starts this one item: push it directly,
					// the same single push flush would make.
					p.inflight.push(p.start(it, g.stream))
				} else {
					p.enqueue(it, g.stream, group)
				}
			}
		}
		p.flush()
		nf[best] = p.nextFinishWall()
	}
	var issued float64
	for i := range ps {
		ps[i].advance(now, tl)
		issued += ps[i].issued
	}
	return RegionResult{Cycles: now, Issued: issued, Items: n}
}

// RunUniformRegion is the closed-form fast path for regions whose items
// all share the same demand profile (for example the per-edge loops of
// Shiloach–Vishkin, where storing millions of identical Items would be
// wasteful). It matches RunRegion on uniform inputs: the region runs at
// full issue rate while saturated and drains the tail exactly.
func RunUniformRegion(procs, streamsPerProc, n int, it Item, sched Sched) RegionResult {
	if n == 0 {
		return RegionResult{}
	}
	crit := it.Crit
	if crit < it.Issue {
		crit = it.Issue
	}
	if crit <= 0 {
		crit = 1e-9
	}
	// With identical items both schedules assign ceil/floor(n/S) rounds per
	// stream; a stream with k items has critical path k*crit. A processor
	// with S streams of demand d=issue/crit each saturates when S*d > 1.
	S := streamsPerProc
	// Items are spread across processors nearly evenly under either policy.
	perProc := (n + procs - 1) / procs
	rounds := (perProc + S - 1) / S
	streamsBusyLast := perProc - (rounds-1)*S // streams active in the final round
	if rounds == 1 {
		streamsBusyLast = perProc
	}
	d := it.Issue / crit
	fullRoundTime := func(active int) float64 {
		dem := float64(active) * d
		if dem > 1 {
			return crit * dem // processor-sharing stretch
		}
		return crit
	}
	cycles := 0.0
	if rounds > 1 {
		cycles += float64(float64(rounds-1) * fullRoundTime(S))
	}
	cycles += fullRoundTime(streamsBusyLast)
	// Issue slots consumed are exactly n*issue: every item runs once.
	return RegionResult{Cycles: cycles, Issued: float64(n) * it.Issue, Items: n}
}

package mta

// The charge/timing split. A region's charges — what its iterations
// demand — depend on the kernel, its input and the charge class (see
// ChargeClass), never on the processor or stream count. Its timing —
// the region scheduler's wall time on Procs×UseStreams, the bank floor
// on Banks, the commit into Stats and the attribution event — depends on
// nothing else. Live regions (ParallelFor, Serial, Barrier) charge into
// one charges value and hand it to time; Play hands it recorded ones.
// Both end in the same function, so a played tape cannot time
// differently from a live run.

import (
	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// regionKind says which machine call a charges value came from.
type regionKind uint8

const (
	regionParallel regionKind = iota
	regionSerial
	regionBarrier
)

// charges is one region's processor-count-independent demand.
type charges struct {
	kind  regionKind
	n     int // parallel iterations
	sched sim.Sched

	// items holds one item per iteration on the exact path and is nil on
	// the aggregate path, where issue and crit are the iterations' sums
	// and maxCrit the longest critical path. A serial region keeps its
	// one thread's issue and crit.
	items                []sim.Item
	issue, crit, maxCrit float64

	refs, instrs, fetchAdds, syncOps int64
	ctrGrabs                         int64 // grabs of the shared loop counter
	hottest                          int64 // FEB operations on the hottest word

	// bankIdx lists the bank buckets the region touched and bankCnt
	// their reference counts, aligned.
	bankIdx []int32
	bankCnt []int64
}

// foldBuckets is the bucket count every power-of-two Banks up to it
// tallies into (see bankBuckets).
const foldBuckets = 1024

// bankBuckets returns how many buckets a machine with banks memory banks
// tallies references into. A power of two up to foldBuckets tallies into
// foldBuckets buckets, which the timing step folds onto the machine's
// banks: for Banks = 2^k ≤ 1024, h mod 2^k = (h mod 1024) mod 2^k for
// any (hashed or raw) address h, and the counts are integers, so the
// folded peak is exactly the per-bank peak. Every default machine up to
// p = 8 therefore shares one bucket layout, and one recorded run times
// on all of them. Any other Banks tallies per bank.
func bankBuckets(banks int) int {
	if banks <= foldBuckets && banks&(banks-1) == 0 {
		return foldBuckets
	}
	return banks
}

// tallyCharges copies the merged region tally into ch: its counts, its
// hottest FEB word and its bank-bucket histogram. bankIdx aliases the
// tally's touched list and bankCnt a scratch slice, both reused by the
// next region.
func (m *Machine) tallyCharges(ch *charges) {
	tl := m.region
	ch.refs, ch.instrs, ch.fetchAdds, ch.syncOps = tl.refs, tl.instrs, tl.fetchAdds, tl.syncOps
	ch.ctrGrabs = tl.ctrGrabs
	ch.hottest = tl.hot.max()
	cnt := m.bankCnt[:0]
	for _, b := range tl.touched {
		cnt = append(cnt, tl.bankRefs[b])
	}
	m.bankCnt = cnt
	ch.bankIdx, ch.bankCnt = tl.touched, cnt
}

// charge appends a live region's charges to the tape being recorded, if
// any, and times them: now, or with later set, in the background (see
// timeLater), returning a zero result.
func (m *Machine) charge(ch *charges, later bool) sim.RegionResult {
	if m.tape != nil {
		m.tape.add(ch, &m.dict)
	}
	if later {
		m.timeLater(ch)
		return sim.RegionResult{}
	}
	return m.time(ch)
}

// time advances the machine by one charged region on its configuration:
// the region's wall time (the item scheduler on the exact path, the
// closed form on the aggregate path, the critical path for a serial
// section), raised to the bank, hotspot and loop-counter floors, then
// committed into Stats and, with a sink attached, emitted as an
// attribution event. It returns the region's final result.
func (m *Machine) time(ch *charges) sim.RegionResult {
	if ch.kind == regionBarrier {
		// A barrier depends on nothing but the clock, so it queues behind
		// a pending region instead of waiting for it.
		if m.pending != nil {
			m.pending.barriers++
		} else {
			m.commitBarrier()
		}
		return sim.RegionResult{}
	}
	m.settle()

	var res sim.RegionResult
	var samples []float64
	switch {
	case ch.kind == regionSerial:
		res = sim.RegionResult{Cycles: ch.crit, Issued: ch.issue, Items: 1}
	case ch.n == 0:
		m.stats.Regions++
		return res
	case ch.items != nil:
		if m.sink != nil && m.sampleCy > 0 {
			tl := &sim.IssueTimeline{Interval: m.sampleCy}
			res = sim.RunRegionTimeline(m.cfg.Procs, m.cfg.UseStreams, ch.items, ch.sched, tl)
			samples = tl.Used
		} else {
			res = sim.RunRegion(m.cfg.Procs, m.cfg.UseStreams, ch.items, ch.sched)
		}
	default:
		avg := sim.Item{Issue: ch.issue / float64(ch.n), Crit: ch.crit / float64(ch.n)}
		res = sim.RunUniformRegion(m.cfg.Procs, m.cfg.UseStreams, ch.n, avg, ch.sched)
		if ch.maxCrit > res.Cycles {
			res.Cycles = ch.maxCrit
		}
		res.Issued = ch.issue
	}
	return m.commit(ch, res, m.floors(ch), samples)
}

// commitBarrier commits one barrier into Stats and the sink.
func (m *Machine) commitBarrier() {
	start := m.stats.Cycles
	m.stats.Barriers++
	m.stats.Cycles += m.cfg.BarrierCycles
	if m.sink != nil {
		m.emitBarrier(start)
	}
}

// commit raises a timed region's result to its floors and commits it
// into Stats and the sink.
func (m *Machine) commit(ch *charges, res sim.RegionResult, fl floors, samples []float64) sim.RegionResult {
	start := m.stats.Cycles
	kind, items, idleCat := "parallel", ch.n, trace.CatMemStall
	if ch.kind == regionSerial {
		m.stats.SerialSpans++
		kind, items, idleCat = "serial", 0, trace.CatSerial
	} else {
		m.stats.Regions++
	}
	fluid := res.Cycles
	if floor := fl.max(); floor > res.Cycles {
		if ch.kind == regionParallel {
			m.stats.BankStalls += floor - res.Cycles
		}
		res.Cycles = floor
	}
	m.stats.Refs += ch.refs
	m.stats.Instrs += ch.instrs
	m.stats.FetchAdds += ch.fetchAdds
	m.stats.SyncOps += ch.syncOps
	m.stats.Retries += fl.retries
	m.stats.Cycles += res.Cycles
	m.stats.Issued += res.Issued
	if m.sink != nil {
		m.emitRegion(kind, items, start, fluid, res, fl, idleCat, samples)
	}
	return res
}

// pendingRegion is an exact region whose items a helper goroutine is
// scheduling while the kernel replays the regions after it.
type pendingRegion struct {
	ch       charges
	fl       floors
	res      sim.RegionResult
	done     chan struct{}
	barriers int // barriers charged after the region, committed after it
}

// timeLater times a live exact region the way time does, but runs its
// item scheduler on a goroutine of its own and commits the result only
// when settle is next called: by the next region's timing, by any read
// of Stats, or by Reset or SetSink. The scheduler is the one serial
// step of a region, so on a machine replaying on several host workers
// it then overlaps the next region's replay instead of idling them. The
// floors are taken now, while the region's bank histogram is still in
// hand, and the items keep their buffer: the next region replays into
// the spare one.
func (m *Machine) timeLater(ch *charges) {
	m.settle()
	p := &pendingRegion{ch: *ch, fl: m.floors(ch), done: make(chan struct{})}
	p.ch.bankIdx, p.ch.bankCnt = nil, nil
	m.items, m.spareItems = m.spareItems, m.items
	procs, streams := m.cfg.Procs, m.cfg.UseStreams
	go func() {
		defer close(p.done)
		p.res = sim.RunRegion(procs, streams, p.ch.items, p.ch.sched)
	}()
	m.pending = p
}

// settle commits the pending region, if any, waiting for its schedule.
func (m *Machine) settle() {
	p := m.pending
	if p == nil {
		return
	}
	m.pending = nil
	<-p.done
	m.commit(&p.ch, p.res, p.fl, nil)
	for range p.barriers {
		m.commitBarrier()
	}
}

// floors returns the lower bounds on a region's wall time imposed by
// memory banks and FEB hotspots: a bank accepts one request per
// BankCycle cycles, competing FEB operations on one word serialize, and
// the shared dynamic-schedule counter serves one grab per cycle. The
// trace layer uses the breakdown to name the binding floor.
func (m *Machine) floors(ch *charges) floors {
	var fl floors
	fl.bank = float64(m.bankPeak(ch.bankIdx, ch.bankCnt)) * m.cfg.BankCycle
	if ch.hottest > 1 {
		fl.hotspot = float64(ch.hottest) * m.cfg.HotspotCycle
		fl.retries = ch.hottest - 1
	}
	fl.ctr = float64(ch.ctrGrabs)
	return fl
}

// bankPeak folds a bucket histogram onto the machine's banks and returns
// the busiest bank's reference count. Bucket b holds only references to
// bank b & (Banks-1) whenever the fold is needed (see bankBuckets), so
// the fold is exact; with one bucket per bank it is the identity.
func (m *Machine) bankPeak(idx []int32, cnt []int64) int64 {
	var peak int64
	if int(m.banks.n) == m.cfg.Banks {
		for _, c := range cnt {
			if c > peak {
				peak = c
			}
		}
		return peak
	}
	if len(m.fold) < m.cfg.Banks {
		m.fold = make([]int64, m.cfg.Banks)
	}
	mask := int32(m.cfg.Banks - 1)
	for i, b := range idx {
		m.fold[b&mask] += cnt[i]
	}
	for _, b := range idx {
		if c := m.fold[b&mask]; c > peak {
			peak = c
		}
	}
	for _, b := range idx {
		m.fold[b&mask] = 0
	}
	return peak
}

package sim

// IssueTimeline accumulates the issue slots a region consumes per
// fixed-width interval of simulated time, filled in by
// RunRegionTimeline. Between discrete completion events the fluid model
// knows each processor's exact issue rate (min(demand, 1)), so the
// timeline is exact, not sampled: Used sums to the region's Issued up to
// floating-point association.
//
// The timeline is a per-region observability feature for the trace
// layer (internal/trace); it does not alter timing, and because
// RunRegionTimeline runs on the merged item array after any host-worker
// replay, its contents are identical for every SetHostWorkers value.
type IssueTimeline struct {
	Interval float64   // bucket width in cycles; must be positive
	Used     []float64 // issue slots consumed per bucket, grown on demand
}

// add spreads a constant usage rate over wall interval [lo, hi) into the
// buckets it overlaps.
func (tl *IssueTimeline) add(lo, hi, rate float64) {
	if hi <= lo || rate <= 0 {
		return
	}
	for b := int(lo / tl.Interval); ; b++ {
		blo, bhi := float64(b)*tl.Interval, float64(b+1)*tl.Interval
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		for len(tl.Used) <= b {
			tl.Used = append(tl.Used, 0)
		}
		tl.Used[b] += float64((bhi - blo) * rate)
		if float64(b+1)*tl.Interval >= hi {
			return
		}
	}
}

package trace

import (
	"fmt"
	"io"
)

// Utilization timeline: useful-work slot-cycles per fixed-width bucket
// of simulated time, one series per machine. Within-region samples are
// used at full resolution when the machine recorded them; events without
// samples contribute their Issued spread uniformly over their span —
// exact at region granularity, which is all the fluid model resolves.

// Timeline is one machine's bucketed utilization series.
type Timeline struct {
	Machine  string
	BucketCy float64   // bucket width in cycles
	Used     []float64 // slot-cycles of useful work per bucket
	Capacity []float64 // slot-cycle capacity per bucket (procs × covered cycles)
}

// Utilization returns bucket k's used/capacity fraction.
func (tl *Timeline) Utilization(k int) float64 {
	if k >= len(tl.Used) || tl.Capacity[k] <= 0 {
		return 0
	}
	return tl.Used[k] / tl.Capacity[k]
}

// spread adds amount distributed uniformly over [lo, hi) cycles into the
// buckets it overlaps.
func (tl *Timeline) spread(dst []float64, lo, hi, amount float64) []float64 {
	if hi <= lo || amount == 0 {
		return dst
	}
	rate := amount / (hi - lo)
	for b := int(lo / tl.BucketCy); ; b++ {
		blo, bhi := float64(b)*tl.BucketCy, float64(b+1)*tl.BucketCy
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		for len(dst) <= b {
			dst = append(dst, 0)
		}
		dst[b] += float64((bhi - blo) * rate)
		if float64(b+1)*tl.BucketCy >= hi {
			return dst
		}
	}
}

// Timelines buckets the recorded events at the given width, one series
// per machine in first-seen order. bucketCy must be positive.
func (r *Recorder) Timelines(bucketCy float64) []*Timeline {
	if bucketCy <= 0 {
		panic("trace: bucket width must be positive")
	}
	var out []*Timeline
	byMachine := make(map[string]*Timeline)
	for _, name := range r.machines() {
		tl := &Timeline{Machine: name, BucketCy: bucketCy}
		byMachine[name] = tl
		out = append(out, tl)
	}
	for _, e := range r.Events {
		tl := byMachine[e.Machine]
		end := e.Start + e.Cycles
		tl.Capacity = tl.spread(tl.Capacity, e.Start, end, e.Cycles*float64(e.Procs))
		if e.Samples != nil && e.SampleCy > 0 {
			for k, slots := range e.Samples {
				lo := e.Start + float64(float64(k)*e.SampleCy)
				hi := lo + e.SampleCy
				if hi > end {
					hi = end
				}
				if lo >= end {
					break
				}
				tl.Used = tl.spread(tl.Used, lo, hi, slots)
			}
		} else {
			tl.Used = tl.spread(tl.Used, e.Start, end, e.Issued)
		}
	}
	// Pad Used to Capacity length so callers can index either.
	for _, tl := range out {
		for len(tl.Used) < len(tl.Capacity) {
			tl.Used = append(tl.Used, 0)
		}
	}
	return out
}

// WriteTimeline prints the bucketed utilization of every machine in the
// trace as a text table with a bar per bucket.
func (r *Recorder) WriteTimeline(w io.Writer, bucketCy float64) {
	for _, tl := range r.Timelines(bucketCy) {
		fmt.Fprintf(w, "%s utilization timeline (bucket = %.0f cycles)\n", tl.Machine, tl.BucketCy)
		for k := range tl.Capacity {
			u := tl.Utilization(k)
			bar := int(float64(u*40) + 0.5)
			if bar > 40 {
				bar = 40
			}
			fmt.Fprintf(w, "%12.0f  %5.1f%%  |", float64(k)*tl.BucketCy, u*100)
			for i := 0; i < bar; i++ {
				fmt.Fprint(w, "#")
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// Package harness regenerates every experimental artifact of the paper —
// Fig. 1 (list ranking), Fig. 2 (connected components), Table 1 (MTA
// utilization), the §5 headline ratios, and the §3 saturation claim —
// plus the ablations listed in DESIGN.md, on the two simulated machines.
//
// Each experiment has a Params struct with scaled defaults (Small runs
// in CI seconds; Paper approaches the paper's problem sizes), a Run
// function returning typed results, and a text formatter that prints the
// same rows/series the paper reports.
package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Scale selects default problem sizes.
type Scale int

const (
	// Small finishes the whole suite in tens of seconds; shapes hold.
	Small Scale = iota
	// Medium is a minutes-long run with clearer asymptotics.
	Medium
	// Paper approaches the paper's sizes (tens of millions of nodes);
	// expect long runs and gigabytes of memory.
	Paper
)

// ParseScale converts a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	}
	return Small, fmt.Errorf("harness: unknown scale %q (want small, medium or paper)", s)
}

// Point is one measurement in a series.
type Point struct {
	X       float64 // problem size (list length or edge count)
	Seconds float64 // simulated seconds
}

// pointPair is one fig1/fig2 cell's outcome: the MTA and SMP points.
type pointPair struct {
	MTA Point
	SMP Point
}

// Series is one curve of a figure: a machine/workload/processor-count
// combination swept over problem size.
type Series struct {
	Machine  string // "MTA" or "SMP"
	Workload string // "Ordered", "Random", or a graph description
	Procs    int
	Points   []Point
}

func writeSeriesTable(w io.Writer, title, xName string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "machine\tworkload\tp\t%s\tseconds\n", xName)
	for _, s := range series {
		for _, pt := range s.Points {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%.6f\n", s.Machine, s.Workload, s.Procs, pt.X, pt.Seconds)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// at returns the Y value of the series point with X == x, or ok=false.
func (s Series) at(x float64) (float64, bool) {
	for _, pt := range s.Points {
		if pt.X == x {
			return pt.Seconds, true
		}
	}
	return 0, false
}

// find locates a series by attributes.
func find(series []Series, machine, workload string, procs int) (Series, bool) {
	for _, s := range series {
		if s.Machine == machine && s.Workload == workload && s.Procs == procs {
			return s, true
		}
	}
	return Series{}, false
}

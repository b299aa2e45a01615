package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
	"pargraph/internal/treecon"
)

// SummaryResult collects the §5 headline ratios (experiment E4),
// reported next to the values the paper gives.
type SummaryResult struct {
	Ratios []SummaryRatio
}

// SummaryRatio is one measured headline number.
type SummaryRatio struct {
	Name     string
	Measured float64
	Paper    string // the paper's reported range, verbatim
}

// Summarize derives the headline ratios from already-run figure sweeps,
// comparing at the largest common problem size and highest processor
// count present in the data.
func Summarize(f1 *Fig1Result, f2 *Fig2Result) (*SummaryResult, error) {
	res := &SummaryResult{}

	largestX := func(series []Series) float64 {
		x := 0.0
		for _, s := range series {
			for _, pt := range s.Points {
				if pt.X > x {
					x = pt.X
				}
			}
		}
		return x
	}
	maxProcs := func(series []Series) int {
		p := 0
		for _, s := range series {
			if s.Procs > p {
				p = s.Procs
			}
		}
		return p
	}

	ratio := func(series []Series, mA, wA string, mB, wB string, procs int, x float64) (float64, error) {
		a, okA := find(series, mA, wA, procs)
		b, okB := find(series, mB, wB, procs)
		if !okA || !okB {
			return 0, fmt.Errorf("harness: summary is missing series %s/%s or %s/%s at p=%d", mA, wA, mB, wB, procs)
		}
		ya, okA := a.at(x)
		yb, okB := b.at(x)
		if !okA || !okB || yb == 0 {
			return 0, fmt.Errorf("harness: summary is missing point x=%.0f", x)
		}
		return ya / yb, nil
	}

	if f1 != nil {
		x := largestX(f1.Series)
		p := maxProcs(f1.Series)
		if r, err := ratio(f1.Series, "SMP", "Ordered", "MTA", "Ordered", p, x); err == nil {
			res.Ratios = append(res.Ratios, SummaryRatio{
				Name: "list ranking, ordered: SMP time / MTA time", Measured: r, Paper: "~10x"})
		} else {
			return nil, err
		}
		if r, err := ratio(f1.Series, "SMP", "Random", "MTA", "Random", p, x); err == nil {
			res.Ratios = append(res.Ratios, SummaryRatio{
				Name: "list ranking, random: SMP time / MTA time", Measured: r, Paper: "~35x"})
		} else {
			return nil, err
		}
		if r, err := ratio(f1.Series, "SMP", "Random", "SMP", "Ordered", p, x); err == nil {
			res.Ratios = append(res.Ratios, SummaryRatio{
				Name: "SMP list ranking: random time / ordered time", Measured: r, Paper: "3-4x"})
		} else {
			return nil, err
		}
		if r, err := ratio(f1.Series, "MTA", "Random", "MTA", "Ordered", p, x); err == nil {
			res.Ratios = append(res.Ratios, SummaryRatio{
				Name: "MTA list ranking: random time / ordered time", Measured: r, Paper: "~1x (order-independent)"})
		} else {
			return nil, err
		}
	}
	if f2 != nil {
		x := largestX(f2.Series)
		p := maxProcs(f2.Series)
		workload := fmt.Sprintf("G(%d,m)", f2.N)
		if r, err := ratio(f2.Series, "SMP", workload, "MTA", workload, p, x); err == nil {
			res.Ratios = append(res.Ratios, SummaryRatio{
				Name: "connected components: SMP time / MTA time", Measured: r, Paper: "5-6x"})
		} else {
			return nil, err
		}
	}
	return res, nil
}

// WriteText prints the ratios beside the paper's reported values.
func (r *SummaryResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Headline ratios (paper §5)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "quantity\tmeasured\tpaper")
	for _, rt := range r.Ratios {
		fmt.Fprintf(tw, "%s\t%.1fx\t%s\n", rt.Name, rt.Measured, rt.Paper)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// SaturationResult is experiment E5: utilization as a function of list
// length per processor, checking §3's claim that a list of length 1000p
// (100 streams × ~10 nodes per walk) fully utilizes p processors.
type SaturationResult struct {
	Rows []SaturationRow
}

// SaturationRow is one (p, n) utilization measurement.
type SaturationRow struct {
	Procs       int
	N           int
	Utilization float64
}

// RunSaturation sweeps list length per processor for each p, one
// scheduled cell per (p, length) pair.
func (e *Env) RunSaturation(procs []int, perProc []int, seed uint64) (*SaturationResult, error) {
	nK := len(perProc)
	rows := make([]SaturationRow, len(procs)*nK)
	_, err := e.runSweep(len(rows), e.stdOpts(), func(idx int, c *Cell) error {
		p := procs[idx/nK]
		n := perProc[idx%nK] * p
		lKey := sweep.ListKey(n, list.Random.String(), seed+uint64(n))
		row, err := Memo(c, fmt.Sprintf("saturation/p=%d", p),
			[]string{lKey}, appendSaturationRow, consumeSaturationRow, func() (SaturationRow, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, list.Random, seed+uint64(n)) })
				m := c.MTA(mta.DefaultConfig(p))
				listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
				return SaturationRow{Procs: p, N: n, Utilization: m.Utilization()}, nil
			})
		if err != nil {
			return err
		}
		rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SaturationResult{Rows: rows}, nil
}

// WriteText prints the saturation sweep.
func (r *SaturationResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "MTA saturation (paper §3: n = 1000p should approach full utilization)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tn\tn/p\tutilization")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f%%\n", row.Procs, row.N, row.N/row.Procs, row.Utilization*100)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// StreamsResult is experiment E6: §2.2's claim that "40 to 80 threads
// per processor are usually sufficient to reduce T_M(n,p) to zero" —
// time and utilization as a function of the streams the program uses.
type StreamsResult struct {
	Rows []StreamsRow
}

// StreamsRow is one streams-per-processor measurement.
type StreamsRow struct {
	Streams     int
	Seconds     float64
	Utilization float64
}

// RunStreams sweeps the number of streams used per processor for
// list ranking on a Random list, one cell per stream count; the list
// and its MTA run (see Cell.RunMTA) are built once and shared.
func (e *Env) RunStreams(n, procs int, streams []int, seed uint64) (*StreamsResult, error) {
	rows := make([]StreamsRow, len(streams))
	_, err := e.runSweep(len(rows), e.stdOpts(), func(idx int, c *Cell) error {
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		row, err := Memo(c, fmt.Sprintf("streams/p=%d/streams=%d", procs, streams[idx]),
			[]string{lKey}, appendStreamsRow, consumeStreamsRow, func() (StreamsRow, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, list.Random, seed) })
				cfg := mta.DefaultConfig(procs)
				cfg.UseStreams = streams[idx]
				nwalk := n / listrank.DefaultNodesPerWalk
				m, err := c.RunMTA(fmt.Sprintf("RankMTA/%s/nwalk=%d/dynamic", lKey, nwalk), len(streams),
					cfg, func(m *mta.Machine) error {
						listrank.RankMTA(l, m, nwalk, sim.SchedDynamic)
						return nil
					})
				if err != nil {
					return StreamsRow{}, err
				}
				return StreamsRow{Streams: streams[idx], Seconds: m.Seconds(), Utilization: m.Utilization()}, nil
			})
		if err != nil {
			return err
		}
		rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &StreamsResult{Rows: rows}, nil
}

// WriteText prints the sweep.
func (r *StreamsResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "MTA streams per processor (paper §2.2: 40-80 streams hide the memory latency)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "streams\tseconds\tutilization")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.6f\t%.0f%%\n", row.Streams, row.Seconds, row.Utilization*100)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// TreeEvalResult is experiment E7 — the paper's future-work direction:
// tree contraction (expression evaluation) on both machines, checking
// that the architectural conclusions carry to the next algorithm in the
// list-ranking family.
type TreeEvalResult struct {
	Procs int
	Rows  []TreeEvalRow
}

// TreeEvalRow is one problem size.
type TreeEvalRow struct {
	Leaves     int
	MTASeconds float64
	SMPSeconds float64
}

// exprRef is a random expression tree with its sequential value: the
// one Go type cached under sweep.ExprKey, by E7 and by cmd/profile
// alike. gob writes the type's name into the cached bytes, so two types
// under one key would give one input two digests. Exported fields so
// the value persists through gob (see sweep.GetAs).
type exprRef struct {
	E    *treecon.Expr
	Want int64
}

// RunTreeEval evaluates random expressions of each size on both machine
// models, verifying every result against the sequential evaluator. One
// cell per size; the expression and its sequential value are built once
// per size and shared by both machine runs.
func (e *Env) RunTreeEval(leaves []int, procs int, seed uint64) (*TreeEvalResult, error) {
	rows := make([]TreeEvalRow, len(leaves))
	_, err := e.runSweep(len(rows), e.stdOpts(), func(idx int, c *Cell) error {
		nl := leaves[idx]
		eKey := sweep.ExprKey(nl, seed+uint64(nl))
		row, err := Memo(c, fmt.Sprintf("treeeval/p=%d/seed=%d", procs, seed),
			[]string{eKey}, appendTreeEvalRow, consumeTreeEvalRow, func() (TreeEvalRow, error) {
				ref := cached(c, eKey, func() exprRef {
					e := treecon.RandomExpr(nl, seed+uint64(nl))
					return exprRef{E: e, Want: treecon.EvalSequential(e)}
				})
				mm := c.MTA(mta.DefaultConfig(procs))
				if got := treecon.EvalMTA(ref.E, mm, sim.SchedDynamic); got != ref.Want {
					return TreeEvalRow{}, fmt.Errorf("harness: E7 MTA wrong value at %d leaves", nl)
				}
				sm := c.SMP(smp.DefaultConfig(procs))
				if got := treecon.EvalSMP(ref.E, sm, seed^uint64(nl)); got != ref.Want {
					return TreeEvalRow{}, fmt.Errorf("harness: E7 SMP wrong value at %d leaves", nl)
				}
				return TreeEvalRow{Leaves: nl, MTASeconds: mm.Seconds(), SMPSeconds: sm.Seconds()}, nil
			})
		if err != nil {
			return err
		}
		rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TreeEvalResult{Procs: procs, Rows: rows}, nil
}

// WriteText prints the comparison.
func (r *TreeEvalResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Tree contraction (expression evaluation) on both machines, p=%d\n", r.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "leaves\tMTA\tSMP\tSMP/MTA")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.6f\t%.6f\t%.1fx\n", row.Leaves, row.MTASeconds, row.SMPSeconds, row.SMPSeconds/row.MTASeconds)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

package harness

import (
	"fmt"
	"io"

	"pargraph/internal/cmdutil"
	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
)

// Fig2Params configures the connected-components experiment of Fig. 2:
// running times on both machines for a random graph with N vertices and
// EdgeFactors×N edges, for p = 1, 2, 4, 8.
type Fig2Params struct {
	N           int
	EdgeFactors []int // the paper sweeps m = 4M..20M for n = 1M
	Procs       []int
	Seed        uint64
}

// DefaultFig2 returns parameters at the given scale. The paper uses
// n = 1M = 2^20 vertices and m = 4n..20n edges. Every scale checks
// every run's components against union-find.
func DefaultFig2(scale Scale) Fig2Params {
	p := Fig2Params{
		EdgeFactors: []int{4, 8, 12, 16, 20},
		Procs:       []int{1, 2, 4, 8},
		Seed:        0x22,
	}
	switch scale {
	case Small:
		p.N = 1 << 13
	case Medium:
		p.N = 1 << 16
	default:
		p.N = 1 << 20
	}
	return p
}

// Fig2Result holds both panels of the figure.
type Fig2Result struct {
	N      int
	Series []Series
}

// RunFig2 executes the sweep. Cells — one per (procs, edge factor), in
// sequential loop order — run under the harness Jobs setting; each
// random graph, its CSR, its union-find verification reference and its
// MTA run (see Cell.RunMTA) are built once per edge factor and shared by
// every processor count.
func (e *Env) RunFig2(params Fig2Params) (*Fig2Result, error) {
	// N is a scale default the spec never sees, so the edge factors are
	// checked against it here, before any cell builds a graph.
	for _, f := range params.EdgeFactors {
		if err := cmdutil.CheckGraphGen("gnm", params.N, f*params.N, 0, 0, 0); err != nil {
			return nil, fmt.Errorf("fig2: edge factor %d: %w", f, err)
		}
	}
	nF := len(params.EdgeFactors)
	outs, err := runCells(e, len(params.Procs)*nF, func(idx int, c *Cell) (pointPair, error) {
		procs := params.Procs[idx/nF]
		f := params.EdgeFactors[idx%nF]
		m := f * params.N
		gKey := sweep.GnmKey(params.N, m, params.Seed+uint64(f))
		ufKey := sweep.UnionFindKey(gKey)

		return Memo(c,
			fmt.Sprintf("fig2/p=%d/seed=%d/verify=true", procs, params.Seed),
			[]string{gKey, ufKey}, func() (pointPair, error) {
				g := cached(c, gKey, func() *graph.Graph {
					return graph.RandomGnm(params.N, m, params.Seed+uint64(f))
				})
				want := cached(c, ufKey, func() []int32 { return concomp.UnionFind(g) })
				mm, err := c.RunMTA(fmt.Sprintf("LabelMTA/%s/dynamic", gKey), len(params.Procs),
					mta.DefaultConfig(procs), func(mt *mta.Machine) error {
						got := concomp.LabelMTA(g, mt, sim.SchedDynamic)
						if !graph.SameComponents(want, got) {
							return fmt.Errorf("fig2 MTA m=%d: wrong components", m)
						}
						return nil
					})
				if err != nil {
					return pointPair{}, err
				}

				sm := c.SMP(smp.DefaultConfig(procs))
				got := concomp.LabelSMP(g, sm)
				if !graph.SameComponents(want, got) {
					return pointPair{}, fmt.Errorf("fig2 SMP m=%d p=%d: wrong components", m, procs)
				}
				return pointPair{
					MTA: Point{X: float64(m), Seconds: mm.Seconds()},
					SMP: Point{X: float64(m), Seconds: sm.Seconds()},
				}, nil
			})
	})
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{N: params.N}
	workload := fmt.Sprintf("G(%d,m)", params.N)
	for pi, procs := range params.Procs {
		mtaSeries := Series{Machine: "MTA", Workload: workload, Procs: procs}
		smpSeries := Series{Machine: "SMP", Workload: workload, Procs: procs}
		for fi := range params.EdgeFactors {
			o := outs[pi*nF+fi]
			mtaSeries.Points = append(mtaSeries.Points, o.MTA)
			smpSeries.Points = append(smpSeries.Points, o.SMP)
		}
		res.Series = append(res.Series, mtaSeries, smpSeries)
	}
	return res, nil
}

// WriteText prints the two panels as tables.
func (r *Fig2Result) WriteText(w io.Writer) {
	var mtaS, smpS []Series
	for _, s := range r.Series {
		if s.Machine == "MTA" {
			mtaS = append(mtaS, s)
		} else {
			smpS = append(smpS, s)
		}
	}
	writeSeriesTable(w, fmt.Sprintf("Fig. 2 (left): connected components on the Cray MTA (n=%d)", r.N), "m", mtaS)
	writeSeriesTable(w, fmt.Sprintf("Fig. 2 (right): connected components on the Sun SMP (n=%d)", r.N), "m", smpS)
}

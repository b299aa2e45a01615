package harness

import (
	"fmt"
	"io"

	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
)

// Fig1Params configures the list-ranking experiment of Fig. 1: running
// times on the Cray MTA (left panel) and the Sun SMP (right panel) for
// p = 1, 2, 4, 8 processors on Ordered and Random lists.
type Fig1Params struct {
	Sizes        []int
	Procs        []int
	Layouts      []list.Layout
	NodesPerWalk int // MTA sublist granularity (paper: ~10)
	Sublists     int // SMP sublists per processor (paper: 8)
	Seed         uint64
	Verify       bool // cross-check every run against Sequential
}

// DefaultFig1 returns parameters at the given scale. The paper sweeps
// lists up to 80 M nodes; Small stops at 2^18 so the suite stays quick.
func DefaultFig1(scale Scale) Fig1Params {
	p := Fig1Params{
		Procs:        []int{1, 2, 4, 8},
		Layouts:      []list.Layout{list.Ordered, list.Random},
		NodesPerWalk: listrank.DefaultNodesPerWalk,
		Sublists:     8,
		Seed:         0x11,
		Verify:       true,
	}
	switch scale {
	case Small:
		p.Sizes = []int{1 << 15, 1 << 16, 1 << 17, 1 << 18}
	case Medium:
		p.Sizes = []int{1 << 18, 1 << 19, 1 << 20, 1 << 21}
	default:
		p.Sizes = []int{1 << 21, 1 << 23, 1 << 24, 20 << 20}
		p.Verify = false
	}
	return p
}

// Fig1Result holds both panels of the figure.
type Fig1Result struct {
	Series []Series
}

// RunFig1 executes the sweep. Cells — one per (layout, procs, size),
// laid out in the sequential loop order — run under the harness Jobs
// setting; each list is generated once per (size, layout) and shared
// read-only by every processor count that ranks it, and so is its MTA
// run (see Cell.RunMTA): ranked and verified once, timed per count.
func (e *Env) RunFig1(params Fig1Params) (*Fig1Result, error) {
	nP, nS := len(params.Procs), len(params.Sizes)
	outs, err := runCells(e, len(params.Layouts)*nP*nS, func(idx int, c *Cell) (pointPair, error) {
		layout := params.Layouts[idx/(nP*nS)]
		procs := params.Procs[idx/nS%nP]
		n := params.Sizes[idx%nS]
		lKey := sweep.ListKey(n, layout.String(), params.Seed+uint64(n))

		return Memo(c,
			fmt.Sprintf("fig1/p=%d/npw=%d/sub=%d/seed=%d/verify=%t",
				procs, params.NodesPerWalk, params.Sublists, params.Seed, params.Verify),
			[]string{lKey}, func() (pointPair, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, layout, params.Seed+uint64(n)) })
				nwalk := n / params.NodesPerWalk
				mm, err := c.RunMTA(fmt.Sprintf("RankMTA/%s/nwalk=%d/dynamic", lKey, nwalk), nP,
					mta.DefaultConfig(procs), func(m *mta.Machine) error {
						rank := listrank.RankMTA(l, m, nwalk, sim.SchedDynamic)
						if params.Verify {
							if err := l.VerifyRanks(rank); err != nil {
								return fmt.Errorf("fig1 MTA n=%d: %w", n, err)
							}
						}
						return nil
					})
				if err != nil {
					return pointPair{}, err
				}

				sm := c.SMP(smp.DefaultConfig(procs))
				rank := listrank.RankSMP(l, sm, params.Sublists*procs, params.Seed^uint64(n))
				if params.Verify {
					if err := l.VerifyRanks(rank); err != nil {
						return pointPair{}, fmt.Errorf("fig1 SMP n=%d p=%d: %w", n, procs, err)
					}
				}
				return pointPair{
					MTA: Point{X: float64(n), Seconds: mm.Seconds()},
					SMP: Point{X: float64(n), Seconds: sm.Seconds()},
				}, nil
			})
	})
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{}
	for li, layout := range params.Layouts {
		for pi, procs := range params.Procs {
			mtaSeries := Series{Machine: "MTA", Workload: layout.String(), Procs: procs}
			smpSeries := Series{Machine: "SMP", Workload: layout.String(), Procs: procs}
			for si := range params.Sizes {
				o := outs[(li*nP+pi)*nS+si]
				mtaSeries.Points = append(mtaSeries.Points, o.MTA)
				smpSeries.Points = append(smpSeries.Points, o.SMP)
			}
			res.Series = append(res.Series, mtaSeries, smpSeries)
		}
	}
	return res, nil
}

// WriteText prints the two panels as tables.
func (r *Fig1Result) WriteText(w io.Writer) {
	var mtaS, smpS []Series
	for _, s := range r.Series {
		if s.Machine == "MTA" {
			mtaS = append(mtaS, s)
		} else {
			smpS = append(smpS, s)
		}
	}
	writeSeriesTable(w, "Fig. 1 (left): list ranking on the Cray MTA", "n", mtaS)
	writeSeriesTable(w, "Fig. 1 (right): list ranking on the Sun SMP", "n", smpS)
}

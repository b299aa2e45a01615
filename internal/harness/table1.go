package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/sweep"
)

// Table1Params configures the MTA processor-utilization table. The paper
// measures list ranking on a 20M-node list (Random and Ordered) and
// connected components on n = 1M, m = 20M ≈ n log n.
type Table1Params struct {
	ListN        int
	GraphN       int
	GraphM       int
	Procs        []int
	NodesPerWalk int
	Seed         uint64
}

// DefaultTable1 returns parameters at the given scale.
func DefaultTable1(scale Scale) Table1Params {
	p := Table1Params{
		Procs:        []int{1, 4, 8},
		NodesPerWalk: listrank.DefaultNodesPerWalk,
		Seed:         0x33,
	}
	switch scale {
	case Small:
		p.ListN = 1 << 17
		p.GraphN = 1 << 13
		p.GraphM = 20 << 13
	case Medium:
		p.ListN = 1 << 20
		p.GraphN = 1 << 16
		p.GraphM = 20 << 16
	default:
		p.ListN = 20 << 20
		p.GraphN = 1 << 20
		p.GraphM = 20 << 20
	}
	return p
}

// Table1Result is the utilization table: one row per workload, one
// column per processor count.
type Table1Result struct {
	Procs []int
	Rows  []Table1Row
}

// Table1Row is one workload's utilizations, indexed like Procs.
type Table1Row struct {
	Workload    string
	Utilization []float64
}

// RunTable1 executes the utilization measurements. Cells — Random-list
// ranking, Ordered-list ranking, then connected components, each over
// every processor count — run under the harness Jobs setting; each list
// and the graph are built once and shared by every processor count, and
// so is each row's MTA run (see Cell.RunMTA).
func (e *Env) RunTable1(params Table1Params) (*Table1Result, error) {
	nP := len(params.Procs)
	layouts := []list.Layout{list.Random, list.Ordered}
	utils, err := runCells(e, 3*nP, func(idx int, c *Cell) (float64, error) {
		procs := params.Procs[idx%nP]
		row := idx / nP
		// resolve resolves the row's input and returns its MTA kernel. It
		// runs before the shared run, so a cell that plays the tape still
		// resolves the input it lists.
		var inKey, run string
		var resolve func() func(m *mta.Machine) error
		if row < 2 {
			layout := layouts[row]
			inKey = sweep.ListKey(params.ListN, layout.String(), params.Seed)
			nwalk := params.ListN / params.NodesPerWalk
			run = fmt.Sprintf("RankMTA/%s/nwalk=%d/dynamic", inKey, nwalk)
			resolve = func() func(m *mta.Machine) error {
				l := cached(c, inKey, func() *list.List { return list.New(params.ListN, layout, params.Seed) })
				return func(m *mta.Machine) error {
					listrank.RankMTA(l, m, nwalk, sim.SchedDynamic)
					return nil
				}
			}
		} else {
			inKey = sweep.GnmKey(params.GraphN, params.GraphM, params.Seed+1)
			run = fmt.Sprintf("LabelMTA/%s/dynamic", inKey)
			resolve = func() func(m *mta.Machine) error {
				g := cached(c, inKey, func() *graph.Graph { return graph.RandomGnm(params.GraphN, params.GraphM, params.Seed+1) })
				return func(m *mta.Machine) error {
					concomp.LabelMTA(g, m, sim.SchedDynamic)
					return nil
				}
			}
		}
		return Memo(c,
			fmt.Sprintf("table1/row=%d/p=%d/npw=%d", row, procs, params.NodesPerWalk),
			[]string{inKey}, func() (float64, error) {
				m, err := c.RunMTA(run, nP, mta.DefaultConfig(procs), resolve())
				return m.Utilization(), err
			})
	})
	if err != nil {
		return nil, err
	}

	res := &Table1Result{Procs: params.Procs}
	res.Rows = []Table1Row{
		{Workload: "List Ranking / Random List", Utilization: utils[:nP]},
		{Workload: "List Ranking / Ordered List", Utilization: utils[nP : 2*nP]},
		{Workload: "Connected Components", Utilization: utils[2*nP:]},
	}
	return res, nil
}

// WriteText prints the table in the paper's layout.
func (r *Table1Result) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Table 1: processor utilization on the Cray MTA")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, p := range r.Procs {
		fmt.Fprintf(tw, "\tp=%d", p)
	}
	fmt.Fprintln(tw)
	for _, row := range r.Rows {
		fmt.Fprint(tw, row.Workload)
		for _, u := range row.Utilization {
			fmt.Fprintf(tw, "\t%.0f%%", u*100)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

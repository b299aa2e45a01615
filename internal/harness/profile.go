package harness

import (
	"fmt"

	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/rng"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
	"pargraph/internal/treecon"
)

// ProfileParams configures one attribution-profiling run (cmd/profile):
// a single kernel at a single size, traced region by region.
type ProfileParams struct {
	Kernel  string // "fig1" (list ranking), "fig2" (connected components), "prefix", "treecon", "coloring"
	Machine string // "mta", "smp", or "both"
	N       int    // nodes / vertices / leaves
	Procs   int
	Layout  list.Layout // list layout for fig1/prefix
	Seed    uint64
}

// prefixIn is the cached input of the prefix profile: a list, its
// values and their sequential prefix sums. Exported fields so the value
// persists through gob when a disk cache is attached (see sweep.GetAs).
type prefixIn struct {
	L    *list.List
	Vals []int64
	Want []int64
}

// profPoint is one profile cell's model numbers (its events travel in
// the shared trace section of the memo payload).
type profPoint struct {
	Cycles  float64
	Seconds float64
}

// ProfileRun summarizes one machine's execution.
type ProfileRun struct {
	Machine string // "MTA" or "SMP", as in its events' Machine
	Cycles  float64
	Seconds float64
}

// RunProfile executes the configured kernel on the requested
// machine(s), verifying each result against the sequential reference,
// and summarizes each machine's run. Its events go to the Env's
// TraceSink, sampled at TraceSampleCycles, like every sweep's: they are
// emitted at region commit on the kernel's goroutine, so the stream
// (and everything rendered from it) is bit-identical for any
// HostWorkers value. With Machine "both" the two machines are separate
// scheduled cells (run concurrently under -jobs) sharing the cached
// input, forwarded MTA-first, exactly the sequential emission order.
func (e *Env) RunProfile(params ProfileParams) ([]ProfileRun, error) {
	if params.Procs < 1 {
		return nil, fmt.Errorf("profile: procs must be positive, got %d", params.Procs)
	}
	wantMTA, wantSMP := false, false
	switch params.Machine {
	case "mta":
		wantMTA = true
	case "smp":
		wantSMP = true
	case "both":
		wantMTA, wantSMP = true, true
	default:
		return nil, fmt.Errorf("profile: unknown machine %q (want mta, smp, or both)", params.Machine)
	}

	// Per kernel: the content keys of every cached input the kernels
	// read (including verify-only references), and the machine kernels,
	// which resolve those inputs themselves (cached, so with both
	// machines scheduled each is built once) and verify against the
	// sequential reference.
	n := params.N
	var inputs []string
	var mtaKernel func(c *Cell, m *mta.Machine) error
	var smpKernel func(c *Cell, m *smp.Machine) error
	switch params.Kernel {
	case "fig1":
		lKey := sweep.ListKey(n, params.Layout.String(), params.Seed)
		getList := func(c *Cell) *list.List {
			return cached(c, lKey,
				func() *list.List { return list.New(n, params.Layout, params.Seed) })
		}
		inputs = []string{lKey}
		mtaKernel = func(c *Cell, m *mta.Machine) error {
			l := getList(c)
			rank := listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
			return l.VerifyRanks(rank)
		}
		smpKernel = func(c *Cell, m *smp.Machine) error {
			l := getList(c)
			rank := listrank.RankSMP(l, m, 8*params.Procs, params.Seed)
			return l.VerifyRanks(rank)
		}

	case "fig2":
		gKey := sweep.GnmKey(n, 8*n, params.Seed)
		ufKey := sweep.UnionFindKey(gKey)
		getGraph := func(c *Cell) *graph.Graph {
			return cached(c, gKey, func() *graph.Graph { return graph.RandomGnm(n, 8*n, params.Seed) })
		}
		check := func(c *Cell, g *graph.Graph, got []int32) error {
			want := cached(c, ufKey, func() []int32 { return concomp.UnionFind(g) })
			if !graph.SameComponents(want, got) {
				return fmt.Errorf("wrong components")
			}
			return nil
		}
		inputs = []string{gKey, ufKey}
		mtaKernel = func(c *Cell, m *mta.Machine) error {
			g := getGraph(c)
			return check(c, g, concomp.LabelMTA(g, m, sim.SchedDynamic))
		}
		smpKernel = func(c *Cell, m *smp.Machine) error {
			g := getGraph(c)
			return check(c, g, concomp.LabelSMP(g, m))
		}

	case "prefix":
		pKey := sweep.PrefixKey(n, params.Layout.String(), params.Seed)
		getIn := func(c *Cell) prefixIn {
			return cached(c, pKey, func() prefixIn {
				l := list.New(n, params.Layout, params.Seed)
				vals := make([]int64, n)
				r := rng.New(params.Seed ^ 0xabcd)
				for i := range vals {
					vals[i] = int64(r.Intn(1000)) - 500
				}
				return prefixIn{L: l, Vals: vals, Want: listrank.SequentialPrefix(l, vals)}
			})
		}
		inputs = []string{pKey}
		check := func(want, got []int64) error {
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("prefix sum mismatch at node %d", i)
				}
			}
			return nil
		}
		mtaKernel = func(c *Cell, m *mta.Machine) error {
			in := getIn(c)
			return check(in.Want, listrank.PrefixMTA(in.L, in.Vals, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic))
		}
		smpKernel = func(c *Cell, m *smp.Machine) error {
			in := getIn(c)
			return check(in.Want, listrank.PrefixSMP(in.L, in.Vals, m, 8*params.Procs, params.Seed))
		}

	case "treecon":
		eKey := sweep.ExprKey(n, params.Seed)
		getIn := func(c *Cell) exprRef {
			return cached(c, eKey, func() exprRef {
				e := treecon.RandomExpr(n, params.Seed)
				return exprRef{E: e, Want: treecon.EvalSequential(e)}
			})
		}
		inputs = []string{eKey}
		check := func(want, got int64) error {
			if got != want {
				return fmt.Errorf("tree evaluation mismatch: got %d, want %d", got, want)
			}
			return nil
		}
		mtaKernel = func(c *Cell, m *mta.Machine) error {
			in := getIn(c)
			return check(in.Want, treecon.EvalMTA(in.E, m, sim.SchedDynamic))
		}
		smpKernel = func(c *Cell, m *smp.Machine) error {
			in := getIn(c)
			return check(in.Want, treecon.EvalSMP(in.E, m, params.Seed))
		}

	case "coloring":
		gKey := sweep.GnmKey(n, 8*n, params.Seed)
		refKey := sweep.SpecRefKey(gKey)
		getGraph := func(c *Cell) *graph.Graph {
			return cached(c, gKey, func() *graph.Graph { return graph.RandomGnm(n, 8*n, params.Seed) })
		}
		getRef := func(c *Cell, g *graph.Graph) []int32 {
			return cached(c, refKey, func() []int32 {
				color, _ := coloring.Speculative(g)
				return color
			})
		}
		check := func(c *Cell, g *graph.Graph, got []int32) error {
			if err := sameColors(getRef(c, g), got); err != nil {
				return err
			}
			return coloring.Validate(g, got)
		}
		inputs = []string{gKey, refKey}
		mtaKernel = func(c *Cell, m *mta.Machine) error {
			g := getGraph(c)
			got, _ := coloring.ColorMTA(g, m, sim.SchedDynamic)
			return check(c, g, got)
		}
		smpKernel = func(c *Cell, m *smp.Machine) error {
			g := getGraph(c)
			got, _ := coloring.ColorSMP(g, m)
			return check(c, g, got)
		}

	default:
		return nil, fmt.Errorf("profile: unknown kernel %q (want fig1, fig2, prefix, treecon, or coloring)", params.Kernel)
	}

	// One cell per requested machine, MTA before SMP as in the
	// sequential harness.
	type profCell struct {
		machine string
		run     func(c *Cell) (profPoint, error)
	}
	var cells []profCell
	if wantMTA {
		cells = append(cells, profCell{machine: "MTA", run: func(c *Cell) (profPoint, error) {
			m := c.MTA(mta.DefaultConfig(params.Procs))
			if err := mtaKernel(c, m); err != nil {
				return profPoint{}, fmt.Errorf("profile MTA %s: %w", params.Kernel, err)
			}
			return profPoint{Cycles: m.Cycles(), Seconds: m.Seconds()}, nil
		}})
	}
	if wantSMP {
		cells = append(cells, profCell{machine: "SMP", run: func(c *Cell) (profPoint, error) {
			m := c.SMP(smp.DefaultConfig(params.Procs))
			if err := smpKernel(c, m); err != nil {
				return profPoint{}, fmt.Errorf("profile SMP %s: %w", params.Kernel, err)
			}
			return profPoint{Cycles: m.Cycles(), Seconds: m.Seconds()}, nil
		}})
	}

	cfg := fmt.Sprintf("profile/%s/n=%d/p=%d/seed=%d", params.Kernel, n, params.Procs, params.Seed)
	if params.Kernel == "fig1" || params.Kernel == "prefix" {
		cfg += "/layout=" + params.Layout.String()
	}
	return runCells(e, len(cells), func(i int, c *Cell) (ProfileRun, error) {
		pt, err := Memo(c, cfg+"/machine="+cells[i].machine, inputs, func() (profPoint, error) { return cells[i].run(c) })
		return ProfileRun{Machine: cells[i].machine, Cycles: pt.Cycles, Seconds: pt.Seconds}, err
	})
}

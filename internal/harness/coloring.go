package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"pargraph/internal/coloring"
	"pargraph/internal/graph"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
)

// ColoringParams configures the third-workload experiment: speculative
// greedy coloring (Çatalyürek, Feo et al.) on both machines, time vs
// processor count over the follow-up study's three input families —
// skewed RMAT, and regular mesh and torus grids.
type ColoringParams struct {
	Procs     []int
	Seed      uint64
	RMATScale int // RMAT input: 2^scale vertices
	RMATEdges int // edges per vertex for the RMAT input
	MeshDim   int // MeshDim × MeshDim 2D grid
	TorusDim  int // TorusDim × TorusDim 2D torus
	Verify    bool
}

// DefaultColoring returns parameters at the given scale.
func DefaultColoring(scale Scale) ColoringParams {
	p := ColoringParams{
		Procs:     []int{1, 2, 4, 8},
		Seed:      0x44,
		RMATEdges: 8,
		Verify:    true,
	}
	switch scale {
	case Small:
		p.RMATScale = 11
		p.MeshDim = 48
		p.TorusDim = 48
	case Medium:
		p.RMATScale = 14
		p.MeshDim = 128
		p.TorusDim = 128
	default:
		p.RMATScale = 18
		p.MeshDim = 512
		p.TorusDim = 512
		p.Verify = false
	}
	return p
}

// ColoringDynamics reports the machine-independent result of coloring
// one input: the algorithm is deterministic, so palette size, rounds,
// and the per-round conflict counts are identical on both machines (the
// differential suite asserts exactly this).
type ColoringDynamics struct {
	Input      string
	N          int
	M          int
	SeqColors  int   // first-fit baseline palette
	SpecColors int   // speculative palette
	Rounds     int   // rounds to quiescence
	Conflicts  []int // vertices redone after each round
}

// ColoringRow is one (input, procs) timing measurement.
type ColoringRow struct {
	Input      string
	Procs      int
	MTASeconds float64
	SMPSeconds float64
}

// ColoringResult holds the coloring experiment: per-input round
// dynamics plus the time-vs-procs comparison the paper's thesis
// predicts (MTA flat-to-falling given abundant parallelism, SMP bounded
// by the cache/bus model).
type ColoringResult struct {
	Dynamics []ColoringDynamics
	Rows     []ColoringRow
}

// coloringInput describes one input family: its display name, its
// content-complete cache key (every generator parameter, including the
// seed, appears in it — persistent caches live across runs, so a key
// must never be ambiguous between two generations), and its builder.
// The builders are lazy so a shard that owns none of an input's cells
// never generates that graph.
type coloringInput struct {
	name  string
	key   string
	build func() *graph.Graph
}

// coloringInputs describes the three input families.
func coloringInputs(params ColoringParams) []coloringInput {
	rn := 1 << params.RMATScale
	return []coloringInput{
		{
			name:  fmt.Sprintf("rmat(s=%d,m=%dn)", params.RMATScale, params.RMATEdges),
			key:   sweep.RMATKey(params.RMATScale, params.RMATEdges*rn, params.Seed),
			build: func() *graph.Graph { return graph.RMAT(params.RMATScale, params.RMATEdges*rn, params.Seed) },
		},
		{
			name:  fmt.Sprintf("mesh(%dx%d)", params.MeshDim, params.MeshDim),
			key:   sweep.Mesh2DKey(params.MeshDim, params.MeshDim),
			build: func() *graph.Graph { return graph.Mesh2D(params.MeshDim, params.MeshDim) },
		},
		{
			name:  fmt.Sprintf("torus(%dx%d)", params.TorusDim, params.TorusDim),
			key:   sweep.Torus2DKey(params.TorusDim, params.TorusDim),
			build: func() *graph.Graph { return graph.Torus2D(params.TorusDim, params.TorusDim) },
		},
	}
}

// specRef is the cached host reference for one coloring input: the
// speculative coloring and its round statistics, shared read-only by
// the dynamics cell and every timing cell on that input. Exported
// fields so the value persists through gob when a disk cache is
// attached (see sweep.GetAs).
type specRef struct {
	Color []int32
	Stats coloring.Stats
}

// RunColoring executes the sweep, verifying every machine run against
// the host reference (bit-identical colors) and the proper-coloring
// invariant when params.Verify is set. Per input graph there is one
// dynamics cell plus one timing cell per processor count, in sequential
// order; the graph, its CSR, the speculative reference and the MTA run
// (see Cell.RunMTA) are each built once per input and shared across the
// cells.
func (e *Env) RunColoring(params ColoringParams) (*ColoringResult, error) {
	inputs := coloringInputs(params)
	nP := len(params.Procs)
	stride := 1 + nP // cells per input: dynamics, then one per procs
	dynamics := make([]ColoringDynamics, len(inputs))
	rows := make([]ColoringRow, len(inputs)*nP)
	_, err := e.runSweep(len(inputs)*stride, e.stdOpts(), func(idx int, c *Cell) error {
		in := inputs[idx/stride]
		gi, name := idx/stride, in.name
		refKey := sweep.SpecRefKey(in.key)
		memoInputs := []string{in.key, refKey}
		// resolve reads both inputs; every cell on this input lists and
		// resolves both, verifying or not.
		resolve := func() (*graph.Graph, specRef) {
			g := cached(c, in.key, in.build)
			return g, cached(c, refKey, func() specRef {
				color, st := coloring.Speculative(g)
				return specRef{Color: color, Stats: st}
			})
		}

		if pi := idx%stride - 1; pi < 0 {
			// Dynamics cell: the machine-independent round behaviour.
			d, err := Memo(c,
				fmt.Sprintf("coloring/dynamics/verify=%t", params.Verify),
				memoInputs, func() (ColoringDynamics, error) {
					g, ref := resolve()
					if params.Verify {
						if err := coloring.Validate(g, ref.Color); err != nil {
							return ColoringDynamics{}, fmt.Errorf("coloring %s: reference is improper: %w", name, err)
						}
					}
					return ColoringDynamics{
						Input: name, N: g.N, M: g.M(),
						SeqColors:  paletteSize(coloring.Sequential(g)),
						SpecColors: ref.Stats.Colors,
						Rounds:     ref.Stats.Rounds,
						Conflicts:  ref.Stats.Conflicts,
					}, nil
				})
			if err != nil {
				return err
			}
			dynamics[gi] = d
			return nil
		} else {
			procs := params.Procs[pi]
			row, err := Memo(c,
				fmt.Sprintf("coloring/time/p=%d/verify=%t", procs, params.Verify),
				memoInputs, func() (ColoringRow, error) {
					g, ref := resolve()
					row := ColoringRow{Input: name, Procs: procs}

					mm, err := c.RunMTA(fmt.Sprintf("ColorMTA/%s/dynamic", in.key), nP,
						mta.DefaultConfig(procs), func(m *mta.Machine) error {
							gotM, stM := coloring.ColorMTA(g, m, sim.SchedDynamic)
							if params.Verify {
								if err := sameColors(ref.Color, gotM); err != nil {
									return fmt.Errorf("coloring %s MTA: %w", name, err)
								}
								if stM.Rounds != ref.Stats.Rounds {
									return fmt.Errorf("coloring %s MTA: %d rounds, reference took %d", name, stM.Rounds, ref.Stats.Rounds)
								}
							}
							return nil
						})
					if err != nil {
						return row, err
					}
					row.MTASeconds = mm.Seconds()

					sm := c.SMP(smp.DefaultConfig(procs))
					gotS, stS := coloring.ColorSMP(g, sm)
					if params.Verify {
						if err := sameColors(ref.Color, gotS); err != nil {
							return row, fmt.Errorf("coloring %s SMP p=%d: %w", name, procs, err)
						}
						if stS.Rounds != ref.Stats.Rounds {
							return row, fmt.Errorf("coloring %s SMP p=%d: %d rounds, reference took %d", name, procs, stS.Rounds, ref.Stats.Rounds)
						}
					}
					row.SMPSeconds = sm.Seconds()
					return row, nil
				})
			if err != nil {
				return err
			}
			rows[gi*nP+pi] = row
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &ColoringResult{Dynamics: dynamics, Rows: rows}, nil
}

// paletteSize counts the distinct colors in a complete coloring.
func paletteSize(color []int32) int {
	max := int32(-1)
	for _, c := range color {
		if c > max {
			max = c
		}
	}
	return int(max + 1)
}

// sameColors checks two colorings element-wise.
func sameColors(want, got []int32) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("color[%d] = %d, reference says %d", i, got[i], want[i])
		}
	}
	return nil
}

// WriteText prints the round dynamics and the time-vs-procs table.
func (r *ColoringResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Speculative coloring: round dynamics (machine-independent)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "input\tn\tm\tcolors(seq)\tcolors(spec)\trounds\tconflicts/round")
	for _, d := range r.Dynamics {
		parts := make([]string, len(d.Conflicts))
		for i, c := range d.Conflicts {
			parts[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
			d.Input, d.N, d.M, d.SeqColors, d.SpecColors, d.Rounds, strings.Join(parts, ","))
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Speculative coloring: time vs processors on both machines")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "input\tp\tMTA\tSMP\tSMP/MTA")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.6f\t%.6f\t%.1fx\n",
			row.Input, row.Procs, row.MTASeconds, row.SMPSeconds, row.SMPSeconds/row.MTASeconds)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// RunAblColoringSched (A8) compares dynamic against static block
// scheduling of the MTA coloring loops on an RMAT input. The coloring
// grain is one vertex — a degree-sized neighbor scan — so this probes
// the fine-grain end of A1's tradeoff: the dynamic schedule's
// per-iteration int_fetch_add is overhead the block schedule avoids,
// while RMAT's degree skew is what dynamic scheduling insures against.
// Colors and rounds must be identical either way (the speculation is
// schedule-independent); only the time and utilization move.
func (e *Env) RunAblColoringSched(scale, edgeFactor, procs int, seed uint64) (*AblationResult, error) {
	n := 1 << scale
	title := fmt.Sprintf("A8: MTA coloring scheduling (rmat s=%d, m=%dn, p=%d)", scale, edgeFactor, procs)
	scheds := []struct {
		name string
		s    sim.Sched
	}{{"dynamic (int_fetch_add)", sim.SchedDynamic}, {"static block", sim.SchedBlock}}
	return e.runAblation(title, len(scheds), func(idx int, c *Cell) (AblationRow, error) {
		sched := scheds[idx]
		gKey := sweep.RMATKey(scale, edgeFactor*n, seed)
		refKey := sweep.SpecRefKey(gKey)
		return Memo(c,
			fmt.Sprintf("abl/colorsched/p=%d/sched=%s", procs, sched.name),
			[]string{gKey, refKey}, func() (AblationRow, error) {
				g := cached(c, gKey, func() *graph.Graph { return graph.RMAT(scale, edgeFactor*n, seed) })
				want := cached(c, refKey, func() []int32 {
					color, _ := coloring.Speculative(g)
					return color
				})
				m := c.MTA(mta.DefaultConfig(procs))
				got, st := coloring.ColorMTA(g, m, sched.s)
				if err := sameColors(want, got); err != nil {
					return AblationRow{}, fmt.Errorf("harness: A8 %s coloring diverged: %w", sched.name, err)
				}
				return AblationRow{
					Config:  sched.name,
					Seconds: m.Seconds(),
					Extra:   fmt.Sprintf("%d colors, %d rounds, utilization %.0f%%", st.Colors, st.Rounds, m.Utilization()*100),
				}, nil
			})
	})
}

package runner

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"pargraph/internal/binenc"
	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/gio"
	"pargraph/internal/graph"
	"pargraph/internal/harness"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/spec"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// The single-run commands (coloring, listrank, concomp) each run as one
// harness.Cell: their inputs resolve through the cell's private input
// cache, so the manifest hook observes them exactly like the harness
// sweeps' inputs, under the same typed keys — spec-driven and
// harness-driven runs of one workload record the same input identity —
// and their simulated machines memoize through harness.Memo like any
// sweep cell.

// workloadCell returns the run's cell, recording into rec when non-nil.
// Its input cache is backed by the Env's persistent store when one is
// attached and hooked to the Env's input hook (the manifest log) when
// one is active. DIMACS inputs are keyed by path, not content, so a
// file-loaded workload stays memory-only — a persistent entry could
// outlive an edit to the file it claims to represent.
func (rc *runCtx) workloadCell(rec *trace.Recorder) *harness.Cell {
	return rc.env.NewCell(rc.sp.Workload.Input == "", rec)
}

// memoWorkload wraps a single-run workload body in the result cache
// (harness.Memo). The cached payload is the run's rendered stdout bytes
// plus its recorded trace events and input digests, so a warm run
// replays byte-identical artifacts without simulating or reading an
// input; verification happened when the entry was computed and the
// verify flag is part of the cell key. compute resolves its own inputs
// through c, exactly the listed ones. Runs that cannot be keyed on
// content (DIMACS inputs are path-keyed) or whose stdout is not a pure
// function of the cell (-trace region dumps share the RegionTrace
// restriction with manifests) always compute.
func (rc *runCtx) memoWorkload(c *harness.Cell, cellCfg string, inputs []string,
	compute func() ([]byte, error)) ([]byte, error) {
	if rc.sp.Workload.Input != "" || rc.o.RegionTrace {
		return compute()
	}
	return harness.Memo(c, cellCfg, inputs, binenc.AppendBytes, binenc.ConsumeBytes, compute)
}

// graphInput names the workload's graph — the DIMACS input file when
// set, else the named generator — by its content key and build; the
// caller resolves it through its cell when it needs the graph.
func graphInput(w *spec.Workload, seed uint64) (string, func() (*graph.Graph, error)) {
	if w.Input != "" {
		return sweep.DIMACSKey(w.Input), func() (*graph.Graph, error) {
			f, err := os.Open(w.Input)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return gio.ReadDIMACS(f)
		}
	}
	switch w.Gen {
	case "gnm":
		return sweep.GnmKey(w.N, w.M, seed), func() (*graph.Graph, error) { return graph.RandomGnm(w.N, w.M, seed), nil }
	case "rmat":
		scale := 0
		for 1<<scale < w.N {
			scale++
		}
		if scale < 1 {
			scale = 1
		}
		return sweep.RMATKey(scale, w.M, seed), func() (*graph.Graph, error) { return graph.RMAT(scale, w.M, seed), nil }
	case "mesh2d":
		return sweep.Mesh2DKey(w.Rows, w.Cols), func() (*graph.Graph, error) { return graph.Mesh2D(w.Rows, w.Cols), nil }
	case "mesh3d":
		return sweep.Mesh3DKey(w.Rows, w.Cols, w.Depth), func() (*graph.Graph, error) { return graph.Mesh3D(w.Rows, w.Cols, w.Depth), nil }
	default: // torus; the spec validator already rejected unknown names
		return sweep.Torus2DKey(w.Rows, w.Cols), func() (*graph.Graph, error) { return graph.Torus2D(w.Rows, w.Cols), nil }
	}
}

// traceArtifacts renders and writes the trace / attribution artifacts
// a workload run requested, recording them in the manifest.
func (rc *runCtx) traceArtifacts(rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	sp := rc.sp
	if sp.Output.Trace != "" {
		var tb bytes.Buffer
		if err := rec.WriteChromeTrace(&tb); err != nil {
			return err
		}
		if err := rc.emit("trace", sp.Output.Trace, tb.Bytes(), "wrote Chrome trace to %s\n"); err != nil {
			return err
		}
	}
	if sp.Output.Attr != "" {
		var ab bytes.Buffer
		if err := rec.WriteAttributionCSV(&ab); err != nil {
			return err
		}
		if err := rc.emit("attr", sp.Output.Attr, ab.Bytes(), "wrote attribution CSV to %s\n"); err != nil {
			return err
		}
	}
	return nil
}

// runColoring is cmd/coloring's execution body.
func (rc *runCtx) runColoring() error {
	sp, o := rc.sp, rc.o
	w := &sp.Workload

	sched := sim.SchedDynamic
	if w.Sched == "block" {
		sched = sim.SchedBlock
	}
	var rec *trace.Recorder
	if sp.Output.Trace != "" || sp.Output.Attr != "" {
		rec = &trace.Recorder{}
	}
	c := rc.workloadCell(rec)
	gKey, buildG := graphInput(w, sp.Run.Seed)
	refKey := sweep.SpecRefKey(gKey)
	// begin resolves the graph and opens the output with its header.
	begin := func(buf *bytes.Buffer) (*graph.Graph, error) {
		g, err := harness.Resolve(c, gKey, buildG)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(buf, "graph: %s n=%d m=%d maxdeg=%d\n", w.Gen, g.N, g.M(), g.MaxDegree())
		return g, nil
	}

	printStats := func(buf *bytes.Buffer, st coloring.Stats) {
		parts := make([]string, len(st.Conflicts))
		for i, c := range st.Conflicts {
			parts[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(buf, "colors: %d  rounds: %d  conflicts/round: %s (total %d)\n",
			st.Colors, st.Rounds, strings.Join(parts, ","), st.TotalConflicts())
	}
	checkRef := func(g *graph.Graph, color []int32) error {
		want, err := harness.Resolve(c, refKey, func() ([]int32, error) {
			ref, _ := coloring.Speculative(g)
			return ref, nil
		})
		if err != nil {
			return err
		}
		for i := range want {
			if want[i] != color[i] {
				return fmt.Errorf("VERIFICATION FAILED: color[%d] = %d, host reference says %d", i, color[i], want[i])
			}
		}
		return nil
	}
	validate := func(buf *bytes.Buffer, g *graph.Graph, color []int32) error {
		if !w.Verify {
			return nil
		}
		if err := coloring.Validate(g, color); err != nil {
			return fmt.Errorf("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(buf, "coloring verified ok")
		return nil
	}

	var out []byte
	var err error
	switch w.Machine {
	case "mta", "smp":
		inputs := []string{gKey}
		if w.Verify {
			inputs = append(inputs, refKey)
		}
		out, err = rc.memoWorkload(c,
			fmt.Sprintf("wl/coloring/%s/p=%d/sched=%s/verify=%t", w.Machine, w.Procs, w.Sched, w.Verify),
			inputs, func() ([]byte, error) {
				var buf bytes.Buffer
				g, err := begin(&buf)
				if err != nil {
					return nil, err
				}
				var color []int32
				var st coloring.Stats
				if w.Machine == "mta" {
					mm := mta.New(mta.DefaultConfig(w.Procs))
					mm.SetHostWorkers(sp.Run.Workers)
					if rec != nil {
						mm.SetSink(rec)
					}
					color, st = coloring.ColorMTA(g, mm, sched)
					mst := mm.Stats()
					fmt.Fprintf(&buf, "machine=MTA p=%d\n", w.Procs)
					fmt.Fprintf(&buf, "simulated: %.6f s (%.0f cycles)\n", mm.Seconds(), mm.Cycles())
					fmt.Fprintf(&buf, "utilization: %.1f%%  refs=%d regions=%d barriers=%d\n",
						mm.Utilization()*100, mst.Refs, mst.Regions, mst.Barriers)
				} else {
					sm := smp.New(smp.DefaultConfig(w.Procs))
					sm.SetHostWorkers(sp.Run.Workers)
					if rec != nil {
						sm.SetSink(rec)
					}
					color, st = coloring.ColorSMP(g, sm)
					sst := sm.Stats()
					total := sst.L1Hits + sst.L2Hits + sst.Misses
					fmt.Fprintf(&buf, "machine=SMP p=%d\n", w.Procs)
					fmt.Fprintf(&buf, "simulated: %.6f s (%.0f cycles)\n", sm.Seconds(), sm.Cycles())
					fmt.Fprintf(&buf, "refs=%d  L1 %.1f%%  L2 %.1f%%  mem %.1f%%  barriers=%d\n",
						total,
						100*float64(sst.L1Hits)/float64(total),
						100*float64(sst.L2Hits)/float64(total),
						100*float64(sst.Misses)/float64(total),
						sst.Barriers)
				}
				printStats(&buf, st)
				if w.Verify {
					if err := checkRef(g, color); err != nil {
						return nil, err
					}
				}
				if err := validate(&buf, g, color); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			})
		if err != nil {
			return err
		}
		if err := rc.traceArtifacts(rec); err != nil {
			return err
		}
	case "spec":
		var buf bytes.Buffer
		g, err := begin(&buf)
		if err != nil {
			return err
		}
		color, st := coloring.Speculative(g)
		fmt.Fprintln(&buf, "machine=host(speculative rounds)")
		printStats(&buf, st)
		if err := validate(&buf, g, color); err != nil {
			return err
		}
		out = buf.Bytes()
	default: // seq
		var buf bytes.Buffer
		g, err := begin(&buf)
		if err != nil {
			return err
		}
		color := coloring.Sequential(g)
		max := int32(-1)
		for _, c := range color {
			if c > max {
				max = c
			}
		}
		fmt.Fprintf(&buf, "machine=sequential(first-fit)\ncolors: %d\n", max+1)
		if err := validate(&buf, g, color); err != nil {
			return err
		}
		out = buf.Bytes()
	}

	if _, err := o.Stdout.Write(out); err != nil {
		return err
	}
	rc.record("stdout", "", out)
	return nil
}

// runListrank is cmd/listrank's execution body. The stdout artifact is
// recorded only for the simulated machines — native and seq print wall
// clock, which no manifest can promise to reproduce.
func (rc *runCtx) runListrank() error {
	sp, o := rc.sp, rc.o
	w := &sp.Workload

	lay := list.Random
	switch w.Layout {
	case "ordered":
		lay = list.Ordered
	case "clustered":
		lay = list.Clustered
	}
	var rec *trace.Recorder
	if sp.Output.Trace != "" {
		rec = &trace.Recorder{}
	}
	c := rc.workloadCell(rec)
	lKey := sweep.ListKey(w.N, lay.String(), sp.Run.Seed)
	getList := func() (*list.List, error) {
		return harness.Resolve(c, lKey,
			func() (*list.List, error) { return list.New(w.N, lay, sp.Run.Seed), nil })
	}

	verify := func(buf *bytes.Buffer, l *list.List, rank []int64) error {
		if !w.Verify {
			return nil
		}
		if err := l.VerifyRanks(rank); err != nil {
			return fmt.Errorf("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(buf, "ranks verified ok")
		return nil
	}

	var out []byte
	var err error
	deterministic := false
	switch w.Machine {
	case "mta":
		deterministic = true
		out, err = rc.memoWorkload(c,
			fmt.Sprintf("wl/listrank/mta/p=%d/sched=%s/npw=%d/verify=%t", w.Procs, w.Sched, w.NodesPerWalk, w.Verify),
			[]string{lKey}, func() ([]byte, error) {
				l, err := getList()
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				s := sim.SchedDynamic
				if w.Sched == "block" {
					s = sim.SchedBlock
				}
				m := mta.New(mta.DefaultConfig(w.Procs))
				m.SetHostWorkers(sp.Run.Workers)
				if o.RegionTrace {
					m.EnableTrace()
				}
				if rec != nil {
					m.SetSink(rec)
				}
				rank := listrank.RankMTA(l, m, w.N/w.NodesPerWalk, s)
				st := m.Stats()
				fmt.Fprintf(&buf, "machine=MTA p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
				fmt.Fprintf(&buf, "simulated: %.6f s (%.0f cycles at %.0f MHz)\n", m.Seconds(), m.Cycles(), m.Config().ClockMHz)
				fmt.Fprintf(&buf, "utilization: %.1f%%  refs=%d instrs=%d regions=%d barriers=%d\n",
					m.Utilization()*100, st.Refs, st.Instrs, st.Regions, st.Barriers)
				if o.RegionTrace {
					m.WriteTrace(&buf)
				}
				if err := verify(&buf, l, rank); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			})
		if err != nil {
			return err
		}
		if err := rc.traceArtifacts(rec); err != nil {
			return err
		}
	case "smp":
		deterministic = true
		out, err = rc.memoWorkload(c,
			fmt.Sprintf("wl/listrank/smp/p=%d/sublists=%d/seed=%d/verify=%t", w.Procs, w.Sublists, sp.Run.Seed, w.Verify),
			[]string{lKey}, func() ([]byte, error) {
				l, err := getList()
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				m := smp.New(smp.DefaultConfig(w.Procs))
				m.SetHostWorkers(sp.Run.Workers)
				if o.RegionTrace {
					m.EnableTrace()
				}
				if rec != nil {
					m.SetSink(rec)
				}
				rank := listrank.RankSMP(l, m, w.Sublists*w.Procs, sp.Run.Seed^0xfeed)
				st := m.Stats()
				total := st.L1Hits + st.L2Hits + st.Misses
				fmt.Fprintf(&buf, "machine=SMP p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
				fmt.Fprintf(&buf, "simulated: %.6f s (%.0f cycles at %.0f MHz)\n", m.Seconds(), m.Cycles(), m.Config().ClockMHz)
				fmt.Fprintf(&buf, "refs=%d  L1 %.1f%%  L2 %.1f%%  mem %.1f%%  barriers=%d\n",
					total,
					100*float64(st.L1Hits)/float64(total),
					100*float64(st.L2Hits)/float64(total),
					100*float64(st.Misses)/float64(total),
					st.Barriers)
				if o.RegionTrace {
					m.WriteTrace(&buf)
				}
				if err := verify(&buf, l, rank); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			})
		if err != nil {
			return err
		}
		if err := rc.traceArtifacts(rec); err != nil {
			return err
		}
	case "native":
		l, err := getList()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		start := time.Now()
		rank := listrank.HelmanJaja(l, w.Procs)
		fmt.Fprintf(&buf, "machine=native(goroutines) p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
		fmt.Fprintf(&buf, "wall clock: %.6f s\n", time.Since(start).Seconds())
		if err := verify(&buf, l, rank); err != nil {
			return err
		}
		out = buf.Bytes()
	default: // seq
		l, err := getList()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		start := time.Now()
		rank := listrank.Sequential(l)
		fmt.Fprintf(&buf, "machine=sequential n=%d layout=%s\n", w.N, lay)
		fmt.Fprintf(&buf, "wall clock: %.6f s\n", time.Since(start).Seconds())
		if err := verify(&buf, l, rank); err != nil {
			return err
		}
		out = buf.Bytes()
	}

	if _, err := o.Stdout.Write(out); err != nil {
		return err
	}
	if deterministic {
		rc.record("stdout", "", out)
	} else {
		// Wall-clock output: retained for collected runs (a served job's
		// client still wants it) but never promised by a manifest.
		rc.keep("stdout", "", out)
	}
	return nil
}

// runConcomp is cmd/concomp's execution body. As with listrank, only
// the simulated machines' stdout is recorded in the manifest.
func (rc *runCtx) runConcomp() error {
	sp, o := rc.sp, rc.o
	w := &sp.Workload

	var rec *trace.Recorder
	if sp.Output.Trace != "" {
		rec = &trace.Recorder{}
	}
	c := rc.workloadCell(rec)
	gKey, buildG := graphInput(w, sp.Run.Seed)
	ufKey := sweep.UnionFindKey(gKey)
	// begin resolves the graph and opens the output with its header.
	begin := func(buf *bytes.Buffer) (*graph.Graph, error) {
		g, err := harness.Resolve(c, gKey, buildG)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(buf, "graph: %s n=%d m=%d\n", w.Gen, g.N, g.M())
		return g, nil
	}
	if o.DumpGraph != "" {
		// The dump needs the graph outside the memoized body, so it
		// resolves eagerly; the body's own resolve then hits memory.
		g, err := harness.Resolve(c, gKey, buildG)
		if err != nil {
			return err
		}
		f, err := os.Create(o.DumpGraph)
		if err != nil {
			return err
		}
		if err := gio.WriteDIMACS(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// finish appends the component count and the verification trailer
	// every machine shares.
	finish := func(buf *bytes.Buffer, g *graph.Graph, labels []int32) error {
		fmt.Fprintf(buf, "components: %d\n", graph.CountComponents(labels))
		if !w.Verify {
			return nil
		}
		want, err := harness.Resolve(c, ufKey, func() ([]int32, error) {
			return concomp.UnionFind(g), nil
		})
		if err != nil {
			return err
		}
		if !graph.SameComponents(labels, want) {
			return fmt.Errorf("VERIFICATION FAILED: partition disagrees with union-find")
		}
		fmt.Fprintln(buf, "components verified ok")
		return nil
	}

	var out []byte
	var err error
	deterministic := false
	switch w.Machine {
	case "mta", "mta-star", "smp":
		deterministic = true
		inputs := []string{gKey}
		if w.Verify {
			inputs = append(inputs, ufKey)
		}
		out, err = rc.memoWorkload(c,
			fmt.Sprintf("wl/concomp/%s/p=%d/verify=%t", w.Machine, w.Procs, w.Verify),
			inputs, func() ([]byte, error) {
				var buf bytes.Buffer
				g, err := begin(&buf)
				if err != nil {
					return nil, err
				}
				var labels []int32
				if w.Machine == "smp" {
					sm := smp.New(smp.DefaultConfig(w.Procs))
					sm.SetHostWorkers(sp.Run.Workers)
					if rec != nil {
						sm.SetSink(rec)
					}
					labels = concomp.LabelSMP(g, sm)
					st := sm.Stats()
					total := st.L1Hits + st.L2Hits + st.Misses
					fmt.Fprintf(&buf, "machine=SMP p=%d\n", w.Procs)
					fmt.Fprintf(&buf, "simulated: %.6f s (%.0f cycles)\n", sm.Seconds(), sm.Cycles())
					fmt.Fprintf(&buf, "refs=%d  L1 %.1f%%  L2 %.1f%%  mem %.1f%%  barriers=%d\n",
						total,
						100*float64(st.L1Hits)/float64(total),
						100*float64(st.L2Hits)/float64(total),
						100*float64(st.Misses)/float64(total),
						st.Barriers)
				} else {
					mm := mta.New(mta.DefaultConfig(w.Procs))
					mm.SetHostWorkers(sp.Run.Workers)
					if rec != nil {
						mm.SetSink(rec)
					}
					if w.Machine == "mta" {
						labels = concomp.LabelMTA(g, mm, sim.SchedDynamic)
					} else {
						labels = concomp.LabelMTAStarCheck(g, mm, sim.SchedDynamic)
					}
					st := mm.Stats()
					fmt.Fprintf(&buf, "machine=%s p=%d\n", w.Machine, w.Procs)
					fmt.Fprintf(&buf, "simulated: %.6f s (%.0f cycles)\n", mm.Seconds(), mm.Cycles())
					fmt.Fprintf(&buf, "utilization: %.1f%%  refs=%d regions=%d barriers=%d\n",
						mm.Utilization()*100, st.Refs, st.Regions, st.Barriers)
				}
				if err := finish(&buf, g, labels); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			})
		if err != nil {
			return err
		}
		if err := rc.traceArtifacts(rec); err != nil {
			return err
		}
	default:
		var buf bytes.Buffer
		g, err := begin(&buf)
		if err != nil {
			return err
		}
		var labels []int32
		switch w.Machine {
		case "native":
			start := time.Now()
			labels = concomp.SV(g, w.Procs)
			fmt.Fprintf(&buf, "machine=native(goroutines,SV) p=%d wall=%.6f s\n", w.Procs, time.Since(start).Seconds())
		case "as":
			start := time.Now()
			labels = concomp.AwerbuchShiloach(g, w.Procs)
			fmt.Fprintf(&buf, "machine=native(Awerbuch-Shiloach) p=%d wall=%.6f s\n", w.Procs, time.Since(start).Seconds())
		case "randmate":
			start := time.Now()
			labels = concomp.RandomMate(g, sp.Run.Seed)
			fmt.Fprintf(&buf, "machine=random-mating wall=%.6f s\n", time.Since(start).Seconds())
		case "hybrid":
			start := time.Now()
			labels = concomp.Hybrid(g, sp.Run.Seed)
			fmt.Fprintf(&buf, "machine=hybrid(random-mate+graft) wall=%.6f s\n", time.Since(start).Seconds())
		case "seq":
			start := time.Now()
			labels = concomp.UnionFind(g)
			fmt.Fprintf(&buf, "machine=sequential(union-find) wall=%.6f s\n", time.Since(start).Seconds())
		default: // bfs
			start := time.Now()
			labels = concomp.BFS(g)
			fmt.Fprintf(&buf, "machine=sequential(BFS) wall=%.6f s\n", time.Since(start).Seconds())
		}
		if err := finish(&buf, g, labels); err != nil {
			return err
		}
		out = buf.Bytes()
	}

	if _, err := o.Stdout.Write(out); err != nil {
		return err
	}
	if deterministic {
		rc.record("stdout", "", out)
	} else {
		// Wall-clock output: retained for collected runs (a served job's
		// client still wants it) but never promised by a manifest.
		rc.keep("stdout", "", out)
	}
	return nil
}

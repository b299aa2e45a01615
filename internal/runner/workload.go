package runner

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

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

// The single-run commands (coloring, listrank, concomp) each run as a
// one-cell harness sweep (harness.Env.RunCell): the cell leases its
// machine from the Env pool, resolves its inputs under the same typed
// keys the harness sweeps use, forwards its trace into the Env's
// TraceSink and reports to the cell observer, exactly as a figures cell
// does. Each command is one body — resolve, run, render, verify — with
// a per-machine switch only around the kernel call and its stats lines.

// runWorkload runs one single-run workload. body resolves the run's
// inputs through the cell, runs the kernel and renders stdout into buf.
// One rule decides memo and manifest: stdout without a wall-clock field
// (cell names its result-relevant config) is memoized under cell with
// the listed inputs (harness.Memo) and recorded in the manifest;
// wall-clock stdout (cell == "") is neither, only kept. prepare, when
// non-nil, runs in the cell before the memo (concomp -out needs the
// graph even when the result is cached). The run is traced when the
// spec asks for a trace or an attribution, which spec.Validate allows
// only on a simulated machine; the artifacts come out as trace, attr,
// then stdout.
func (rc *runCtx) runWorkload(cell string, inputs []string, prepare func(*harness.Cell) error,
	body func(c *harness.Cell, buf *bytes.Buffer) error) error {
	sp := rc.sp
	var rec *trace.Recorder
	if sp.Output.Trace != "" || sp.Output.Attr != "" {
		rec = &trace.Recorder{}
		rc.env.TraceSink = rec
	}
	var out []byte
	err := rc.env.RunCell(func(c *harness.Cell) error {
		if prepare != nil {
			if err := prepare(c); err != nil {
				return err
			}
		}
		compute := func() ([]byte, error) {
			var buf bytes.Buffer
			err := body(c, &buf)
			return buf.Bytes(), err
		}
		var err error
		if cell == "" {
			out, err = compute()
		} else {
			out, err = harness.Memo(c, cell, inputs, compute)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := rc.traceArtifacts(rec); err != nil {
		return err
	}
	if cell == "" {
		// Wall-clock output: printed, and handed back to a served job's
		// client, but never promised by a manifest.
		rc.keep("stdout", "", out)
	} else {
		rc.record("stdout", "", out)
	}
	return nil
}

// schedule maps the spec's sched name to the MTA loop schedule.
func schedule(name string) sim.Sched {
	if name == "block" {
		return sim.SchedBlock
	}
	return sim.SchedDynamic
}

// graphInput names the workload's graph — the DIMACS input file when
// set, else the named generator — by its content key and build; the
// caller resolves it through its cell when it needs the graph. A DIMACS
// file is read here, once: its key is the SHA-256 of those bytes and the
// build parses the same bytes, so an edit to the file is a new key.
func graphInput(w *spec.Workload, seed uint64) (string, func() (*graph.Graph, error), error) {
	if w.Input != "" {
		data, err := os.ReadFile(w.Input)
		if err != nil {
			return "", nil, err
		}
		return sweep.DIMACSKey(data), func() (*graph.Graph, error) { return gio.ReadDIMACS(bytes.NewReader(data)) }, nil
	}
	switch w.Gen {
	case "gnm":
		return sweep.GnmKey(w.N, w.M, seed), func() (*graph.Graph, error) { return graph.RandomGnm(w.N, w.M, seed), nil }, nil
	case "rmat":
		scale := 0
		for 1<<scale < w.N {
			scale++
		}
		if scale < 1 {
			scale = 1
		}
		return sweep.RMATKey(scale, w.M, seed), func() (*graph.Graph, error) { return graph.RMAT(scale, w.M, seed), nil }, nil
	case "mesh2d":
		return sweep.Mesh2DKey(w.Rows, w.Cols), func() (*graph.Graph, error) { return graph.Mesh2D(w.Rows, w.Cols), nil }, nil
	case "mesh3d":
		return sweep.Mesh3DKey(w.Rows, w.Cols, w.Depth), func() (*graph.Graph, error) { return graph.Mesh3D(w.Rows, w.Cols, w.Depth), nil }, nil
	default: // torus; the spec validator already rejected unknown names
		return sweep.Torus2DKey(w.Rows, w.Cols), func() (*graph.Graph, error) { return graph.Torus2D(w.Rows, w.Cols), nil }, nil
	}
}

// writeMTARun prints a graph workload's MTA lines (coloring, concomp).
func writeMTARun(buf *bytes.Buffer, name string, procs int, m *mta.Machine) {
	st := m.Stats()
	fmt.Fprintf(buf, "machine=%s p=%d\n", name, procs)
	fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles)\n", m.Seconds(), m.Cycles())
	fmt.Fprintf(buf, "utilization: %.1f%%  refs=%d regions=%d barriers=%d\n",
		m.Utilization()*100, st.Refs, st.Regions, st.Barriers)
}

// writeSMPRun prints a graph workload's SMP lines (coloring, concomp).
func writeSMPRun(buf *bytes.Buffer, procs int, m *smp.Machine) {
	fmt.Fprintf(buf, "machine=SMP p=%d\n", procs)
	fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles)\n", m.Seconds(), m.Cycles())
	writeSMPRefs(buf, m)
}

// writeSMPRefs prints the SMP's reference mix and barrier count.
func writeSMPRefs(buf *bytes.Buffer, m *smp.Machine) {
	st := m.Stats()
	total := st.L1Hits + st.L2Hits + st.Misses
	fmt.Fprintf(buf, "refs=%d  L1 %.1f%%  L2 %.1f%%  mem %.1f%%  barriers=%d\n",
		total,
		100*float64(st.L1Hits)/float64(total),
		100*float64(st.L2Hits)/float64(total),
		100*float64(st.Misses)/float64(total),
		st.Barriers)
}

// writeRounds prints a speculative coloring's palette and rounds.
func writeRounds(buf *bytes.Buffer, st coloring.Stats) {
	parts := make([]string, len(st.Conflicts))
	for i, c := range st.Conflicts {
		parts[i] = fmt.Sprintf("%d", c)
	}
	fmt.Fprintf(buf, "colors: %d  rounds: %d  conflicts/round: %s (total %d)\n",
		st.Colors, st.Rounds, strings.Join(parts, ","), st.TotalConflicts())
}

// runColoring is cmd/coloring's execution body. Every machine's output
// is a function of the graph, so every run is memoized.
func (rc *runCtx) runColoring() error {
	sp := rc.sp
	w := &sp.Workload
	gKey, buildG, err := graphInput(w, sp.Run.Seed)
	if err != nil {
		return err
	}
	// The simulated machines must also reproduce the host speculative
	// reference exactly.
	refKey := sweep.SpecRefKey(gKey)
	checkRef := w.Verify && spec.Simulated(w.Machine)
	inputs := []string{gKey}
	if checkRef {
		inputs = append(inputs, refKey)
	}
	cell := fmt.Sprintf("wl/coloring/%s/p=%d/sched=%s/verify=%t", w.Machine, w.Procs, w.Sched, w.Verify)
	return rc.runWorkload(cell, inputs, nil, func(c *harness.Cell, buf *bytes.Buffer) error {
		g, err := harness.Resolve(c, gKey, buildG)
		if err != nil {
			return err
		}
		fmt.Fprintf(buf, "graph: %s n=%d m=%d maxdeg=%d\n", w.Gen, g.N, g.M(), g.MaxDegree())
		var color []int32
		var st coloring.Stats
		switch w.Machine {
		case "mta":
			m := c.MTA(mta.DefaultConfig(w.Procs))
			color, st = coloring.ColorMTA(g, m, schedule(w.Sched))
			writeMTARun(buf, "MTA", w.Procs, m)
			writeRounds(buf, st)
		case "smp":
			m := c.SMP(smp.DefaultConfig(w.Procs))
			color, st = coloring.ColorSMP(g, m)
			writeSMPRun(buf, w.Procs, m)
			writeRounds(buf, st)
		case "spec":
			color, st = coloring.Speculative(g)
			fmt.Fprintln(buf, "machine=host(speculative rounds)")
			writeRounds(buf, st)
		default: // seq
			color = coloring.Sequential(g)
			max := int32(-1)
			for _, c := range color {
				if c > max {
					max = c
				}
			}
			fmt.Fprintf(buf, "machine=sequential(first-fit)\ncolors: %d\n", max+1)
		}
		if checkRef {
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
		}
		if !w.Verify {
			return nil
		}
		if err := coloring.Validate(g, color); err != nil {
			return fmt.Errorf("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(buf, "coloring verified ok")
		return nil
	})
}

// runListrank is cmd/listrank's execution body. native and seq print
// wall clock, so only the simulated machines are memoized and recorded.
func (rc *runCtx) runListrank() error {
	sp := rc.sp
	w := &sp.Workload
	lay := list.Random
	switch w.Layout {
	case "ordered":
		lay = list.Ordered
	case "clustered":
		lay = list.Clustered
	}
	lKey := sweep.ListKey(w.N, lay.String(), sp.Run.Seed)
	var cell string
	switch w.Machine {
	case "mta":
		cell = fmt.Sprintf("wl/listrank/mta/p=%d/sched=%s/npw=%d/verify=%t", w.Procs, w.Sched, w.NodesPerWalk, w.Verify)
	case "smp":
		cell = fmt.Sprintf("wl/listrank/smp/p=%d/sublists=%d/seed=%d/verify=%t", w.Procs, w.Sublists, sp.Run.Seed, w.Verify)
	}

	return rc.runWorkload(cell, []string{lKey}, nil, func(c *harness.Cell, buf *bytes.Buffer) error {
		l, err := harness.Resolve(c, lKey, func() (*list.List, error) { return list.New(w.N, lay, sp.Run.Seed), nil })
		if err != nil {
			return err
		}
		var rank []int64
		start := time.Now()
		switch w.Machine {
		case "mta":
			m := c.MTA(mta.DefaultConfig(w.Procs))
			rank = listrank.RankMTA(l, m, w.N/w.NodesPerWalk, schedule(w.Sched))
			st := m.Stats()
			fmt.Fprintf(buf, "machine=MTA p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
			fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles at %.0f MHz)\n", m.Seconds(), m.Cycles(), m.Config().ClockMHz)
			fmt.Fprintf(buf, "utilization: %.1f%%  refs=%d instrs=%d regions=%d barriers=%d\n",
				m.Utilization()*100, st.Refs, st.Instrs, st.Regions, st.Barriers)
		case "smp":
			m := c.SMP(smp.DefaultConfig(w.Procs))
			rank = listrank.RankSMP(l, m, w.Sublists*w.Procs, sp.Run.Seed^0xfeed)
			fmt.Fprintf(buf, "machine=SMP p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
			fmt.Fprintf(buf, "simulated: %.6f s (%.0f cycles at %.0f MHz)\n", m.Seconds(), m.Cycles(), m.Config().ClockMHz)
			writeSMPRefs(buf, m)
		case "native":
			rank = listrank.HelmanJaja(l, w.Procs)
			fmt.Fprintf(buf, "machine=native(goroutines) p=%d n=%d layout=%s\n", w.Procs, w.N, lay)
			fmt.Fprintf(buf, "wall clock: %.6f s\n", time.Since(start).Seconds())
		default: // seq
			rank = listrank.Sequential(l)
			fmt.Fprintf(buf, "machine=sequential n=%d layout=%s\n", w.N, lay)
			fmt.Fprintf(buf, "wall clock: %.6f s\n", time.Since(start).Seconds())
		}
		if !w.Verify {
			return nil
		}
		if err := l.VerifyRanks(rank); err != nil {
			return fmt.Errorf("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(buf, "ranks verified ok")
		return nil
	})
}

// runConcomp is cmd/concomp's execution body. As with listrank, only
// the simulated machines' stdout, free of wall clock, is memoized and
// recorded.
func (rc *runCtx) runConcomp() error {
	sp := rc.sp
	w := &sp.Workload
	gKey, buildG, err := graphInput(w, sp.Run.Seed)
	if err != nil {
		return err
	}
	ufKey := sweep.UnionFindKey(gKey)
	inputs := []string{gKey}
	if w.Verify {
		inputs = append(inputs, ufKey)
	}
	var cell string
	if spec.Simulated(w.Machine) {
		cell = fmt.Sprintf("wl/concomp/%s/p=%d/verify=%t", w.Machine, w.Procs, w.Verify)
	}
	var dump func(*harness.Cell) error
	if path := rc.o.DumpGraph; path != "" {
		// The dump needs the graph even when the result is cached, so it
		// resolves before the memo; the body's own resolve then hits
		// memory.
		dump = func(c *harness.Cell) error {
			g, err := harness.Resolve(c, gKey, buildG)
			if err != nil {
				return err
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := gio.WriteDIMACS(f, g); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}

	return rc.runWorkload(cell, inputs, dump, func(c *harness.Cell, buf *bytes.Buffer) error {
		g, err := harness.Resolve(c, gKey, buildG)
		if err != nil {
			return err
		}
		fmt.Fprintf(buf, "graph: %s n=%d m=%d\n", w.Gen, g.N, g.M())
		var labels []int32
		start := time.Now()
		switch w.Machine {
		case "mta", "mta-star":
			m := c.MTA(mta.DefaultConfig(w.Procs))
			if w.Machine == "mta" {
				labels = concomp.LabelMTA(g, m, sim.SchedDynamic)
			} else {
				labels = concomp.LabelMTAStarCheck(g, m, sim.SchedDynamic)
			}
			writeMTARun(buf, w.Machine, w.Procs, m)
		case "smp":
			m := c.SMP(smp.DefaultConfig(w.Procs))
			labels = concomp.LabelSMP(g, m)
			writeSMPRun(buf, w.Procs, m)
		default: // host algorithms, timed on the wall clock
			var name string
			switch w.Machine {
			case "native":
				labels, name = concomp.SV(g, w.Procs), fmt.Sprintf("native(goroutines,SV) p=%d", w.Procs)
			case "as":
				labels, name = concomp.AwerbuchShiloach(g, w.Procs), fmt.Sprintf("native(Awerbuch-Shiloach) p=%d", w.Procs)
			case "randmate":
				labels, name = concomp.RandomMate(g, sp.Run.Seed), "random-mating"
			case "hybrid":
				labels, name = concomp.Hybrid(g, sp.Run.Seed), "hybrid(random-mate+graft)"
			case "seq":
				labels, name = concomp.UnionFind(g), "sequential(union-find)"
			default: // bfs
				labels, name = concomp.BFS(g), "sequential(BFS)"
			}
			fmt.Fprintf(buf, "machine=%s wall=%.6f s\n", name, time.Since(start).Seconds())
		}
		fmt.Fprintf(buf, "components: %d\n", graph.CountComponents(labels))
		if !w.Verify {
			return nil
		}
		want, err := harness.Resolve(c, ufKey, func() ([]int32, error) { return concomp.UnionFind(g), nil })
		if err != nil {
			return err
		}
		if !graph.SameComponents(labels, want) {
			return fmt.Errorf("VERIFICATION FAILED: partition disagrees with union-find")
		}
		fmt.Fprintln(buf, "components verified ok")
		return nil
	})
}
